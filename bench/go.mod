module heterohadoop/bench

go 1.22

require heterohadoop v0.0.0

replace heterohadoop => ../
