module sensorcal/bench

go 1.22

require sensorcal v0.0.0

replace sensorcal => ../
