package main

import (
	"fmt"

	"fixture/internal/lib"
)

type describer interface{ Describe() string }

func main() {
	var d describer = lib.C{}
	fmt.Println(lib.A{}.Frob(), lib.B{}, d.Describe())
}
