// Package fix exercises the typed sharpening of closecheck: the file
// can hide behind an interface conversion or a helper's return value.
package fix

import (
	"io"
	"os"
)

func open(path string) *os.File {
	f, err := os.Open(path)
	if err != nil {
		return nil
	}
	return f
}

func viaInterface(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	var c io.Closer = f
	c.Close() // want "error from c.Close() is discarded"
	return nil
}

func viaHelper(path string) {
	f := open(path)
	defer f.Close() // want "deferred f.Close() discards its error"
	_ = f
}

type writer struct{ f *os.File }

// A file behind a struct field is found by its static type alone.
func viaField(w *writer) {
	w.f.Close() // want "error from w.f.Close() is discarded"
}

func checked(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	return f.Close()
}
