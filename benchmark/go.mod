module drizzle/benchmark

go 1.22

require drizzle v0.0.0

replace drizzle => ../
