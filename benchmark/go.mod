module mpcquery/benchmark

go 1.24

require mpcquery v0.0.0

replace mpcquery => ../
