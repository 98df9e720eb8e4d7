package shuffle

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"drizzle/internal/metrics"
	"drizzle/internal/rpc"
)

// FetchRequest asks the holder of map-output blocks for their bytes. It is
// the "pull" half of the push-small/pull-large design: a downstream task
// pulls a large block when it activates, and a small one whose push it
// never received.
type FetchRequest struct {
	ID     uint64
	From   rpc.NodeID
	Blocks []BlockID
}

// FetchResponse returns block bytes; blocks the holder no longer has are
// listed in Missing so the fetcher can fail fast instead of timing out.
type FetchResponse struct {
	ID      uint64
	Blocks  []Block
	Missing []BlockID
}

// Block pairs a BlockID with its encoded bytes.
type Block struct {
	ID   BlockID
	Data []byte
}

// WireSize implements rpc.Sizer so the in-memory transport charges
// bandwidth proportional to the payload.
func (f FetchResponse) WireSize() int {
	n := 64
	for _, b := range f.Blocks {
		n += 32 + len(b.Data)
	}
	return n
}

// SendFunc abstracts the transport for the shuffle service and fetcher.
type SendFunc func(to rpc.NodeID, msg any) error

// Service serves a worker's block store to remote fetchers. The worker's
// message handler routes FetchRequest messages here.
type Service struct {
	store *Store
	send  SendFunc
}

// NewService returns a Service over store that replies via send.
func NewService(store *Store, send SendFunc) *Service {
	return &Service{store: store, send: send}
}

// HandleRequest serves one fetch request, replying to req.From.
func (s *Service) HandleRequest(req FetchRequest) {
	resp := FetchResponse{ID: req.ID}
	for _, id := range req.Blocks {
		if b, ok := s.store.GetRaw(id); ok {
			resp.Blocks = append(resp.Blocks, Block{ID: id, Data: b})
		} else {
			resp.Missing = append(resp.Missing, id)
		}
	}
	// A send failure means the requester died; it will be rescheduled, so
	// dropping the reply is correct.
	_ = s.send(req.From, resp)
}

// Fetcher issues fetch requests and matches responses, with timeouts so a
// fetch from a machine that died mid-shuffle surfaces as a task error the
// driver can act on (§3.3: workers forward data-plane failures to the
// centralized scheduler).
type Fetcher struct {
	self rpc.NodeID
	send SendFunc

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]chan FetchResponse

	cFetches  *metrics.Counter
	cTimeouts *metrics.Counter
	cErrors   *metrics.Counter
	cBytes    *metrics.Counter
}

// NewFetcher returns a Fetcher identifying itself as self.
func NewFetcher(self rpc.NodeID, send SendFunc) *Fetcher {
	f := &Fetcher{self: self, send: send, pending: make(map[uint64]chan FetchResponse)}
	f.InstrumentMetrics(nil)
	return f
}

// InstrumentMetrics points the fetcher's counters
// (drizzle_worker_shuffle_fetch_*, labeled by worker) at reg. Call before
// the fetcher is shared between goroutines; a nil registry keeps the
// counters live but unexported.
func (f *Fetcher) InstrumentMetrics(reg *metrics.Registry) {
	w := string(f.self)
	f.cFetches = reg.Counter("drizzle_worker_shuffle_fetches_total", "worker", w)
	f.cTimeouts = reg.Counter("drizzle_worker_shuffle_fetch_timeouts_total", "worker", w)
	f.cErrors = reg.Counter("drizzle_worker_shuffle_fetch_errors_total", "worker", w)
	f.cBytes = reg.Counter("drizzle_worker_shuffle_fetch_bytes_total", "worker", w)
}

// HandleResponse routes a response to its waiting Fetch call. Late
// responses (after timeout) are dropped.
func (f *Fetcher) HandleResponse(resp FetchResponse) {
	f.mu.Lock()
	ch, ok := f.pending[resp.ID]
	if ok {
		delete(f.pending, resp.ID)
	}
	f.mu.Unlock()
	if ok {
		ch <- resp
	}
}

// Fetch requests blocks from holder and waits up to timeout for the
// response. An error is returned on transport failure, timeout, if the
// holder reports any block missing, or if the blocks it sent are not the
// ones requested, one each and in request order.
func (f *Fetcher) Fetch(holder rpc.NodeID, blocks []BlockID, timeout time.Duration) ([]Block, error) {
	ch := make(chan FetchResponse, 1)
	f.mu.Lock()
	f.nextID++
	id := f.nextID
	f.pending[id] = ch
	f.mu.Unlock()

	f.cFetches.Inc()
	req := FetchRequest{ID: id, From: f.self, Blocks: blocks}
	if err := f.send(holder, req); err != nil {
		f.abandon(id)
		f.cErrors.Inc()
		return nil, fmt.Errorf("shuffle: fetch from %s: %w", holder, err)
	}
	// A stopped timer, not time.After: this is the shuffle hot path, and
	// time.After would leak one live timer per fetch until it fires.
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case resp := <-ch:
		if len(resp.Missing) > 0 {
			f.cErrors.Inc()
			return nil, fmt.Errorf("shuffle: %s missing %d block(s), first %+v", holder, len(resp.Missing), resp.Missing[0])
		}
		for i := 0; i < len(blocks) || i < len(resp.Blocks); i++ {
			if i >= len(blocks) || i >= len(resp.Blocks) || resp.Blocks[i].ID != blocks[i] {
				f.cErrors.Inc()
				return nil, fmt.Errorf("shuffle: %s sent %d block(s) for %d requested, not the same from #%d", holder, len(resp.Blocks), len(blocks), i)
			}
		}
		var bytes int64
		for _, b := range resp.Blocks {
			bytes += int64(len(b.Data))
		}
		f.cBytes.Add(bytes)
		return resp.Blocks, nil
	case <-timer.C:
		f.abandon(id)
		f.cTimeouts.Inc()
		return nil, fmt.Errorf("shuffle: fetch from %s timed out after %v", holder, timeout)
	}
}

// FetchAll fetches blocks from every holder concurrently — the pipelined
// counterpart of calling Fetch per holder in sequence, which would stack
// one network round trip per holder onto the task's critical path. Results
// are concatenated in sorted holder order so callers see a deterministic
// layout; the first error (by that same order) wins after all fetches have
// settled, each bounded by timeout.
func (f *Fetcher) FetchAll(byHolder map[rpc.NodeID][]BlockID, timeout time.Duration) ([]Block, error) {
	if len(byHolder) == 0 {
		return nil, nil
	}
	holders := make([]rpc.NodeID, 0, len(byHolder))
	for h := range byHolder {
		holders = append(holders, h)
	}
	if len(holders) == 1 {
		return f.Fetch(holders[0], byHolder[holders[0]], timeout)
	}
	sort.Slice(holders, func(i, j int) bool { return holders[i] < holders[j] })
	results := make([][]Block, len(holders))
	errs := make([]error, len(holders))
	var wg sync.WaitGroup
	for i, h := range holders {
		wg.Add(1)
		go func(i int, h rpc.NodeID) {
			defer wg.Done()
			results[i], errs[i] = f.Fetch(h, byHolder[h], timeout)
		}(i, h)
	}
	wg.Wait()
	var out []Block
	for i := range holders {
		if errs[i] != nil {
			return nil, errs[i]
		}
		out = append(out, results[i]...)
	}
	return out, nil
}

func (f *Fetcher) abandon(id uint64) {
	f.mu.Lock()
	delete(f.pending, id)
	f.mu.Unlock()
}
