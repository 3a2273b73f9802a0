// Fixture for the bodylimit analyzer: HTTP handlers must route request
// bodies through http.MaxBytesReader.
package fixture

import (
	"encoding/json"
	"io"
	"net/http"
	"sync"
)

func unbounded(w http.ResponseWriter, r *http.Request) {
	b, _ := io.ReadAll(r.Body) // want "without http.MaxBytesReader"
	w.Write(b)
}

func unboundedDecoder(w http.ResponseWriter, r *http.Request) {
	var v any
	_ = json.NewDecoder(r.Body).Decode(&v) // want "without http.MaxBytesReader"
}

func bounded(w http.ResponseWriter, r *http.Request) {
	b, _ := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	w.Write(b)
}

func rebound(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, 1<<20)
	var v any
	_ = json.NewDecoder(r.Body).Decode(&v)
}

func closeOnly(w http.ResponseWriter, r *http.Request) {
	if r.Body != nil {
		_ = r.Body.Close()
	}
	w.WriteHeader(http.StatusNoContent)
}

var handlerLit = func(w http.ResponseWriter, r *http.Request) {
	var v any
	_ = json.NewDecoder(r.Body).Decode(&v) // want "without http.MaxBytesReader"
}

// readBody stands in for the service's pooled read helper
// (service.ReadBody): it fills a reused buffer from whatever reader it
// is handed, so the bound has to be on that reader already.
func readBody(body io.Reader, buf []byte) ([]byte, error) {
	buf = buf[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err != nil {
			return buf, err
		}
	}
}

var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

func pooledBounded(w http.ResponseWriter, r *http.Request) {
	buf := bodyPool.Get().(*[]byte)
	defer bodyPool.Put(buf)
	*buf, _ = readBody(http.MaxBytesReader(w, r.Body, 1<<20), *buf)
	w.Write(*buf)
}

func pooledUnbounded(w http.ResponseWriter, r *http.Request) {
	buf := bodyPool.Get().(*[]byte)
	defer bodyPool.Put(buf)
	*buf, _ = readBody(r.Body, *buf) // want "without http.MaxBytesReader"
	w.Write(*buf)
}

// client is not handler-shaped (no ResponseWriter): reading the body of
// an outgoing request is out of scope.
func client(r *http.Request) ([]byte, error) {
	return io.ReadAll(r.Body)
}
