module dmpc/bench

go 1.22

require dmpc v0.0.0

replace dmpc => ../
