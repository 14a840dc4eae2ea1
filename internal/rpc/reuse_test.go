package rpc

import (
	"context"
	"testing"
	"time"
)

// TestRoundTripCancelWatcherNeverOutlivesExchange races a context
// cancellation against the end of successful exchanges. Whenever the
// connection stays usable, the cancellation must never reach a later
// exchange on it: its expired deadline would fail that exchange with a
// bare i/o timeout although nothing canceled it.
func TestRoundTripCancelWatcherNeverOutlivesExchange(t *testing.T) {
	srv := echoServer(t)
	dial := func() *Conn {
		c, err := Dial(context.Background(), srv.Addr(), time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	c := dial()
	defer func() { c.Close() }()
	for i := 0; i < 10000; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		go cancel()
		_, err := c.RoundTrip(ctx, &Frame{Kind: 1})
		if err != nil || c.Broken() {
			c.Close()
			c = dial()
			continue
		}
		if _, err := c.RoundTrip(context.Background(), &Frame{Kind: 1}); err != nil {
			t.Fatalf("iteration %d: exchange after a raced cancellation failed: %v", i, err)
		}
	}
}
