module amnt/bench

go 1.22

require amnt v0.0.0

replace amnt => ../
