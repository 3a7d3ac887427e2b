package obs

import (
	"bufio"
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestSlowHeadersDisconnected: a client that trickles its request
// headers is cut off once the read-header timeout passes, instead of
// holding its connection (and a goroutine) open for as long as it keeps
// dribbling bytes.
func TestSlowHeadersDisconnected(t *testing.T) {
	hs := newHTTPServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}),
		200*time.Millisecond, time.Second)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go hs.Serve(ln)
	defer hs.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: x\r\n"); err != nil {
		t.Fatal(err)
	}
	// Keep the headers open, one byte every 50ms, for up to 3s.
	done := make(chan error, 1)
	go func() {
		_, err := bufio.NewReader(conn).ReadByte()
		done <- err
	}()
	deadline := time.After(3 * time.Second)
	for {
		select {
		case <-done:
			// The server gave up on the headers: it answered (408) or
			// closed the connection, either way the trickle is over.
			return
		case <-deadline:
			t.Fatal("server still holds a connection whose headers never finished")
		case <-time.After(50 * time.Millisecond):
			if _, err := io.WriteString(conn, "X"); err != nil {
				return // connection closed by the server
			}
		}
	}
}

// TestServerTimeouts: the server that optserve and Serve listen
// through sets both connection timeouts.
func TestServerTimeouts(t *testing.T) {
	hs := NewHTTPServer(http.NotFoundHandler())
	if hs.ReadHeaderTimeout <= 0 || hs.IdleTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout=%v IdleTimeout=%v, want both set", hs.ReadHeaderTimeout, hs.IdleTimeout)
	}
}
