//go:build !linux

package main

import "errors"

func pinToOneCPU() error {
	return errors.New("the benchmark pins itself to one CPU, which it can only do on Linux")
}
