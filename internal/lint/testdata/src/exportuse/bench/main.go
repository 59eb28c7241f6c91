// The stand-in for benchmark/: a main package whose uses count.
package main

import "fix/a"

func main() { a.UsedByBench() }
