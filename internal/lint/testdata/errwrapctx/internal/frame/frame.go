// Rule 2 of errwrapctx also applies to every file of a package whose
// import path ends in internal/frame, whatever the file is called: the
// framing package is persistence code by definition.
package frame

import (
	"fmt"
	"io"
)

func readBare(r io.Reader, buf []byte) error {
	_, err := io.ReadFull(r, buf)
	if err != nil {
		return err // want "persistence error from io.ReadFull returned without context"
	}
	return nil
}

func readWrapped(r io.Reader, buf []byte, section int) error {
	if _, err := io.ReadFull(r, buf); err != nil {
		return fmt.Errorf("frame: section %d: truncated payload: %w", section, err)
	}
	return nil
}
