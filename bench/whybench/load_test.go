package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestConnPost drives the load generator's own HTTP client against net/http's
// server: answers with a Content-Length, chunked answers, an empty answer, a
// non-200, and a server that closes the connection after every answer. The
// connection has to survive all of them in sequence and hand back the bytes
// the handler wrote.
func TestConnPost(t *testing.T) {
	big := strings.Repeat("0123456789abcdef", 20<<10) // 320 KB, many chunks
	mux := http.NewServeMux()
	mux.HandleFunc("/echo", func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		if r.Method != http.MethodPost || r.Header.Get("Content-Type") != "application/json" {
			http.Error(w, "not a JSON POST", http.StatusBadRequest)
			return
		}
		w.Write(body) // small and unflushed: net/http sets a Content-Length
	})
	mux.HandleFunc("/chunked", func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		for i := 0; i < len(big); i += 50_000 {
			io.WriteString(w, big[i:min(i+50_000, len(big))])
			w.(http.Flusher).Flush()
		}
	})
	mux.HandleFunc("/empty", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTooManyRequests)
	})
	mux.HandleFunc("/close", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Connection", "close")
		io.WriteString(w, "bye")
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	c, err := dial(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	for round := 0; round < 3; round++ {
		for _, step := range []struct {
			path, send string
			status     int
			want       string
		}{
			{"/echo", `{"n":1}`, 200, `{"n":1}`},
			{"/chunked", "x", 200, big},
			{"/echo", "", 200, ""},
			{"/empty", "x", 429, ""},
			{"/close", "x", 200, "bye"},
			{"/echo", fmt.Sprint(round), 200, fmt.Sprint(round)},
			{"/nowhere", "x", 404, "404 page not found\n"},
		} {
			status, got, err := c.post(step.path, []byte(step.send))
			if err != nil || status != step.status || !bytes.Equal(got, []byte(step.want)) {
				t.Fatalf("round %d, %s: status %d, %d bytes, err %v; want status %d, %d bytes",
					round, step.path, status, len(got), err, step.status, len(step.want))
			}
		}
	}
	srv.Close()
	if status, _, err := c.post("/echo", []byte("x")); err == nil {
		t.Errorf("post to a closed server: status %d and no error", status)
	}
}

func TestKeeper(t *testing.T) {
	k := new(keeper)
	a := k.keep([]byte("first"))
	b := k.keep([]byte("second"))
	huge := k.keep(bytes.Repeat([]byte{'x'}, keeperBlock+1))
	c := k.keep([]byte("third"))
	a = append(a, '!') // must not run into b
	if string(a) != "first!" || string(b) != "second" || len(huge) != keeperBlock+1 || string(c) != "third" {
		t.Errorf("kept %q, %q, %d bytes, %q", a, b, len(huge), c)
	}
	if got := (*keeper)(nil).keep([]byte("plain")); string(got) != "plain" {
		t.Errorf("nil keeper kept %q", got)
	}
}
