module reqlens/bench

go 1.22

require reqlens v0.0.0

replace reqlens => ../
