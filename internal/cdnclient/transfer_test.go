package cdnclient_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"scdn/internal/cdnclient"
)

// TestUploadShortSourceSendsNothing checks that a source holding fewer
// bytes than the declared size fails the upload's pre-hash with
// io.ErrUnexpectedEOF, before any request reaches the edge — striped or
// not, no stripe may carry a short body.
func TestUploadShortSourceSendsNothing(t *testing.T) {
	var requests atomic.Int64
	edge := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		_, _ = io.Copy(io.Discard, r.Body)
		w.WriteHeader(http.StatusNoContent)
	}))
	t.Cleanup(edge.Close)

	src := bytes.NewReader(make([]byte, 1<<20))
	for _, stripes := range []int{1, 4} {
		_, err := cdnclient.Upload(context.Background(), cdnclient.TransferOptions{
			Client:    edge.Client(),
			Endpoints: []string{edge.URL},
			Token:     "tok",
			Stripes:   stripes,
		}, "ds-short", "g", src, 4<<20)
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("stripes=%d: err = %v, want io.ErrUnexpectedEOF", stripes, err)
		}
		if n := requests.Load(); n != 0 {
			t.Fatalf("stripes=%d: %d requests reached the edge, want 0", stripes, n)
		}
	}
}
