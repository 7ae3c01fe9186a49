module incll/benchmark

go 1.24

require incll v0.0.0

replace incll => ../
