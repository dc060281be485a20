package main

import "embed"

// testdata holds the expected outputs of committed seeds.
//
//go:embed testdata
var testdata embed.FS

// golden returns the expected output stored under name, if there is one.
func golden(name string) (string, bool) {
	b, err := testdata.ReadFile("testdata/" + name)
	if err != nil {
		return "", false
	}
	return string(b), true
}
