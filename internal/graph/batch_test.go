package graph

import (
	"math"
	"math/rand"
	"testing"
)

func TestChunk(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	stream := RandomStream(20, 23, 0.6, 1, rng)
	for _, k := range []int{1, 4, 23, 100} {
		chunks := Chunk(stream, k)
		total := 0
		for i, b := range chunks {
			if len(b) > k {
				t.Fatalf("k=%d: chunk %d has %d updates", k, i, len(b))
			}
			if i < len(chunks)-1 && len(b) != k {
				t.Fatalf("k=%d: non-final chunk %d has %d updates", k, i, len(b))
			}
			total += len(b)
		}
		flat := make([]Update, 0, total)
		for _, b := range chunks {
			flat = append(flat, b...)
		}
		if len(flat) != len(stream) {
			t.Fatalf("k=%d: chunking dropped updates: %d vs %d", k, len(flat), len(stream))
		}
		for i := range flat {
			if flat[i] != stream[i] {
				t.Fatalf("k=%d: update %d reordered", k, i)
			}
		}
	}
	if got := Chunk(stream, 0); len(got[0]) != 1 {
		t.Fatalf("k=0 should clamp to singleton batches, got %d", len(got[0]))
	}
	if got := Chunk(nil, 4); len(got) != 0 {
		t.Fatalf("empty stream should chunk to nothing, got %d batches", len(got))
	}
}

// TestChunkBoundaries pins the edge cases of the k parameter around the
// stream length: k=0 clamps to singletons, k=1 is singletons, k=len is one
// full chunk, k=len+1 (and any larger k, up to MaxInt, which used to panic
// via capacity overflow) still returns exactly one chunk holding the whole
// stream — never a panic, never an empty result.
func TestChunkBoundaries(t *testing.T) {
	stream := []Update{
		{Op: Insert, U: 0, V: 1, W: 1},
		{Op: Insert, U: 1, V: 2, W: 1},
		{Op: Delete, U: 0, V: 1},
	}
	n := len(stream)
	cases := []struct {
		k          int
		wantChunks int
	}{
		{0, n},
		{1, n},
		{n, 1},
		{n + 1, 1},
		{1 << 40, 1},
		{math.MaxInt, 1},
		{-5, n},
	}
	for _, tc := range cases {
		got := Chunk(stream, tc.k)
		if len(got) != tc.wantChunks {
			t.Fatalf("k=%d: %d chunks, want %d", tc.k, len(got), tc.wantChunks)
		}
		var flat []Update
		for _, b := range got {
			flat = append(flat, b...)
		}
		if len(flat) != n {
			t.Fatalf("k=%d: chunking kept %d of %d updates", tc.k, len(flat), n)
		}
		for i := range flat {
			if flat[i] != stream[i] {
				t.Fatalf("k=%d: update %d reordered", tc.k, i)
			}
		}
	}
	for _, k := range []int{0, 1, math.MaxInt} {
		if got := Chunk(nil, k); got != nil {
			t.Fatalf("k=%d: empty stream should chunk to nil, got %v", k, got)
		}
	}
}

func TestBatchApplyMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	stream := RandomStream(16, 80, 0.55, 9, rng)
	seq := New(16)
	for _, up := range stream {
		seq.Apply(up)
	}
	bat := New(16)
	for _, b := range Chunk(stream, 7) {
		b.Apply(bat)
	}
	se, be := seq.Edges(), bat.Edges()
	if len(se) != len(be) {
		t.Fatalf("edge counts differ: %d vs %d", len(be), len(se))
	}
	for i := range se {
		if se[i] != be[i] {
			t.Fatalf("edge %d differs: %v vs %v", i, be[i], se[i])
		}
	}
}
