package server

import (
	"context"
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"gapplydb/client"
	"gapplydb/internal/wire"
)

// heavyQ takes far longer than frame submission at the test scale
// factor, so a burst of them is fully submitted before the first one
// finishes — the shape admission control exists for.
const heavyQ = "select count(*) from lineitem l1, lineitem l2"

// TestAdmissionBurstMetrics is the admission-control acceptance gate:
// with max-concurrency N, a burst of 4N queries must surface queued and
// rejected counts in the server_* metrics, every submission must get a
// terminal answer, and nothing may leak a goroutine.
func TestAdmissionBurstMetrics(t *testing.T) {
	testDB(t) // materialize the shared database before the baseline
	base := runtime.NumGoroutine()
	t.Cleanup(func() { waitNoExtraGoroutines(t, base) })

	const n = 2 // MaxConcurrent
	srv := startServer(t, Config{MaxConcurrent: n, MaxQueued: n, SessionInFlight: 8 * n})
	conn := dial(t, srv)

	const burst = 4 * n
	var (
		wg                        sync.WaitGroup
		mu                        sync.Mutex
		busy, finished, cancelled int
	)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The timeout bounds the slot holders; the queue and the
			// rejections are decided long before it fires.
			rows, err := conn.Query(context.Background(), heavyQ, client.WithTimeout(500*time.Millisecond))
			if err == nil {
				err = drainRows(rows)
			}
			var se *client.ServerError
			mu.Lock()
			defer mu.Unlock()
			switch {
			case errors.As(err, &se) && se.Code == client.CodeBusy:
				busy++
			case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
				cancelled++ // ran (or queued) until the deadline killed it
			case err == nil:
				finished++
			default:
				t.Errorf("burst query: unexpected outcome %v", err)
			}
		}()
	}
	wg.Wait()

	if busy+finished+cancelled != burst {
		t.Fatalf("accounting: busy=%d finished=%d cancelled=%d, want %d total", busy, finished, cancelled, burst)
	}
	if busy == 0 {
		t.Fatal("burst of 4N queries saw no fast-rejections")
	}
	snap := srv.Metrics()
	if got := snap.Counters["server_queries"]; got != burst {
		t.Fatalf("server_queries = %d, want %d", got, burst)
	}
	if got := snap.Counters["server_queries_rejected"]; got != int64(busy) {
		t.Fatalf("server_queries_rejected = %d, client saw %d busy errors", got, busy)
	}
	if got := snap.Counters["server_queries_queued"]; got == 0 {
		t.Fatal("server_queries_queued = 0, want > 0 (burst exceeded the slot count)")
	}
	waitSettled(t, srv)
}

// TestSessionInFlightCap: one session may only have SessionInFlight
// queries submitted at once; excess submissions fail with the session
// code while other sessions are unaffected.
func TestSessionInFlightCap(t *testing.T) {
	srv := startServer(t, Config{MaxConcurrent: 1, MaxQueued: 16, SessionInFlight: 2})
	conn := dial(t, srv)

	var (
		wg             sync.WaitGroup
		mu             sync.Mutex
		sessionLimited int
	)
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rows, err := conn.Query(context.Background(), heavyQ, client.WithTimeout(300*time.Millisecond))
			if err == nil {
				err = drainRows(rows)
			}
			var se *client.ServerError
			if errors.As(err, &se) && se.Code == client.CodeSession {
				mu.Lock()
				sessionLimited++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if sessionLimited == 0 {
		t.Fatal("6 concurrent submissions against an in-flight cap of 2 saw no session-limit rejections")
	}
	// A second session is not affected by the first one's cap history.
	conn2 := dial(t, srv)
	rows, err := conn2.Query(context.Background(), "select count(*) from part")
	if err != nil {
		t.Fatalf("second session: %v", err)
	}
	fetchAll(t, rows)
}

// TestMidStreamDisconnect: a client that vanishes mid-stream must not
// wedge the server — the query is cancelled through its context, the
// admission slot comes back, and no goroutine survives the session.
func TestMidStreamDisconnect(t *testing.T) {
	testDB(t)
	base := runtime.NumGoroutine()
	t.Cleanup(func() { waitNoExtraGoroutines(t, base) })

	// One slot total, so the follow-up query below only runs if the
	// disconnected query's slot was actually released.
	srv := startServer(t, Config{MaxConcurrent: 1})

	conn, err := client.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	// A result far larger than the kernel socket buffers: the server is
	// still streaming (or blocked writing) when the client hangs up.
	rows, err := conn.Query(context.Background(), "select l1.l_orderkey, l2.l_orderkey from lineitem l1, lineitem l2")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := rows.Next(); err != nil || !ok {
		t.Fatalf("first row: ok=%v err=%v", ok, err)
	}
	conn.Close() // abrupt: no cancel frame, no drain

	// The freed slot is the proof of cleanup: this blocks until the
	// server tears the dead session's query down.
	conn2 := dial(t, srv)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	rows2, err := conn2.Query(ctx, "select count(*) from part")
	if err != nil {
		t.Fatalf("query after disconnect: %v", err)
	}
	if got := fetchAll(t, rows2); len(got) != 1 {
		t.Fatalf("rows = %v", got)
	}
}

// TestCancelCompleteRace races client-side cancellation against natural
// completion over one session, under -race: whichever side wins, every
// query settles with a defined outcome and the session stays usable.
func TestCancelCompleteRace(t *testing.T) {
	srv := startServer(t, Config{})
	conn := dial(t, srv)

	for i := 0; i < 40; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			// Stagger the cancel across the query's whole lifetime so some
			// land before admission, some mid-stream, some after End.
			time.Sleep(time.Duration(i%8) * 100 * time.Microsecond)
			cancel()
			close(done)
		}()
		rows, err := conn.Query(ctx, "select count(*) from part")
		if err == nil {
			err = drainRows(rows)
		}
		<-done
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("iteration %d: err = %v, want nil or context.Canceled", i, err)
		}
		if err := conn.Ping(context.Background()); err != nil {
			t.Fatalf("iteration %d: session dead after race: %v", i, err)
		}
	}
}

// TestServerOversizedFrame: a frame header declaring a payload past the
// server's limit draws a protocol error and a hangup, before any
// allocation for the payload.
func TestServerOversizedFrame(t *testing.T) {
	srv := startServer(t, Config{MaxFrame: 1 << 16})
	nc, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if err := wire.WriteFrame(nc, wire.TypeHello, wire.EncodeHello()); err != nil {
		t.Fatal(err)
	}
	typ, _, err := wire.ReadFrame(nc, 0)
	if err != nil || typ != wire.TypeWelcome {
		t.Fatalf("handshake: type=%v err=%v", typ, err)
	}
	// Header only: type Query, 4 GiB declared payload.
	if _, err := nc.Write([]byte{3, 0xff, 0xff, 0xff, 0xff}); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := wire.ReadFrame(nc, 0)
	if err != nil {
		t.Fatalf("expected an error frame, got %v", err)
	}
	if typ != wire.TypeError {
		t.Fatalf("frame type = %v, want error", typ)
	}
	m, err := wire.DecodeError(payload)
	if err != nil || m.Code != wire.CodeProtocol {
		t.Fatalf("error = %+v (%v), want protocol code", m, err)
	}
	// The connection is poisoned: the server hangs up.
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, _, err := wire.ReadFrame(nc, 0); !errors.Is(err, io.EOF) {
		t.Fatalf("after oversized frame: err = %v, want EOF", err)
	}
}
