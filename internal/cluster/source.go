package cluster

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/ledger"
)

// Replication protocol — the primary side. A Source serves a durable
// ledger's data directory to followers over plain HTTP:
//
//	GET /cluster/meta     — the ledger's shape (ledger.Meta's fields) and
//	                        Protocol; the follower checks the one and
//	                        builds its standby ledger from the other
//	GET /cluster/snapshot — the newest snapshot document, raw bytes, with
//	                        its Content-Length (404: none yet); the
//	                        document names its generation. X-Snapshot-Gen
//	                        repeats it for protocol-2 followers of earlier
//	                        builds; this build does not read it
//	GET /cluster/wal?shard=S&seq=Q&off=O — chunked stream of raw CRC-framed
//	                        WAL bytes from offset O of segment (S, Q),
//	                        tail-following the file while it grows; the
//	                        stream ends after MaxWait of silence, or, once
//	                        the segment is sealed and read to its end, with
//	                        an X-Wal-Next trailer naming the seq the shard
//	                        continues at — the only evidence to hop on.
//	                        410 Gone: the segment was compacted away —
//	                        re-bootstrap from the snapshot.
//	GET /cluster/status   — per-shard acked offsets and lag bytes (the
//	                        primary-side replication gauge)
//
// The WAL files are append-only and every frame is CRC-sealed, so serving
// raw file bytes while the primary appends is safe: a stream can at worst
// end inside a half-written final frame. The follower walks each stream
// with ledger.ReadWAL, applies only whole frames, and asks for a torn one
// again, from its start, on the next pull. Nothing here locks the ledger —
// replication rides entirely on the WAL's own framing.
//
// Acked offsets are inferred from the pull protocol itself: a follower only
// ever requests a record boundary (seq Q, off O), the end of the last
// record it applied, so the last position requested of a listed segment is
// what the standby holds in memory — no explicit ack round-trip needed. The
// standby is volatile: the position says what it applied, not that it is
// durable anywhere but in the primary's own WAL. A refused pull (404, 410)
// is not a position.
type Source struct {
	//litmus:unguarded immutable after NewSource
	dir string
	// MaxWait bounds how long one /cluster/wal response tail-follows a
	// quiet segment before closing (the follower reconnects); Poll is the
	// growth-check interval while following.
	//
	//litmus:unguarded immutable after NewSource
	maxWait time.Duration
	//litmus:unguarded immutable after NewSource
	poll time.Duration

	// mu guards acked, the per-shard last-pulled positions; only shards with
	// a listed segment get an entry.
	mu    sync.Mutex
	acked map[int]ackState //litmus:guarded-by mu
}

// ackState is the last position a follower pulled for one shard.
type ackState struct {
	Seq  uint64
	Off  int64
	Unix int64
}

// Protocol numbers the wire a Source serves; it changes whenever a follower
// of one build could misread a primary of another. Builds that served no
// number spoke protocol 1.
const Protocol = 2

// walNextTrailer is the trailer that ends a sealed segment's WAL stream.
const walNextTrailer = "X-Wal-Next"

// metaBody is the /cluster/meta body.
type metaBody struct {
	ledger.Meta
	Protocol int `json:"protocol"`
}

// SourceConfig parameterises a Source; zero values select the defaults.
type SourceConfig struct {
	// MaxWait bounds one WAL response's tail-follow (default 2s).
	MaxWait time.Duration
	// Poll is the follow loop's growth-check interval (default 20ms).
	Poll time.Duration
}

// NewSource serves the durable ledger data directory at dir to replication
// followers. The ledger keeps owning the directory; the source only reads.
func NewSource(dir string, cfg SourceConfig) *Source {
	if cfg.MaxWait <= 0 {
		cfg.MaxWait = 2 * time.Second
	}
	if cfg.Poll <= 0 {
		cfg.Poll = 20 * time.Millisecond
	}
	return &Source{dir: dir, maxWait: cfg.MaxWait, poll: cfg.Poll, acked: map[int]ackState{}}
}

// ServeHTTP routes the /cluster/* replication endpoints.
func (s *Source) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	switch r.URL.Path {
	case "/cluster/meta":
		s.handleMeta(w, r)
	case "/cluster/snapshot":
		s.handleSnapshot(w, r)
	case "/cluster/wal":
		s.handleWAL(w, r)
	case "/cluster/status":
		s.handleStatus(w, r)
	default:
		http.NotFound(w, r)
	}
}

func (s *Source) handleMeta(w http.ResponseWriter, r *http.Request) {
	m, err := ledger.ReadMeta(s.dir)
	if err != nil {
		http.Error(w, fmt.Sprintf("reading meta: %v", err), http.StatusServiceUnavailable)
		return
	}
	api.WriteJSON(w, http.StatusOK, metaBody{Meta: m, Protocol: Protocol})
}

// handleSnapshot streams the newest snapshot from one open descriptor: the
// primary never holds the document in memory (≈180 MB at the default key
// window), and compaction unlinking the file cannot cut a transfer that has
// begun.
func (s *Source) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	ls, err := ledger.ReadListing(s.dir)
	if err != nil {
		http.Error(w, fmt.Sprintf("listing snapshots: %v", err), http.StatusServiceUnavailable)
		return
	}
	if ls.SnapshotPath == "" {
		http.Error(w, "no snapshot yet", http.StatusNotFound)
		return
	}
	f, err := os.Open(ls.SnapshotPath)
	if err != nil {
		http.Error(w, fmt.Sprintf("reading snapshot: %v", err), http.StatusServiceUnavailable)
		return
	}
	defer func() { _ = f.Close() }() // read-only: nothing buffered to lose
	if info, err := f.Stat(); err == nil {
		// A committed snapshot never changes, so its length is known: the
		// follower can tell a cut transfer, and net/http can sendfile.
		w.Header().Set("Content-Length", strconv.FormatInt(info.Size(), 10))
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Snapshot-Gen", strconv.FormatUint(ls.SnapshotGen, 10))
	w.WriteHeader(http.StatusOK)
	_, _ = io.Copy(w, f)
}

func (s *Source) handleWAL(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	shard, err := strconv.Atoi(q.Get("shard"))
	if err != nil || shard < 0 {
		http.Error(w, "bad shard", http.StatusBadRequest)
		return
	}
	seq, err := strconv.ParseUint(q.Get("seq"), 10, 64)
	if err != nil {
		http.Error(w, "bad seq", http.StatusBadRequest)
		return
	}
	off, err := strconv.ParseInt(q.Get("off"), 10, 64)
	if err != nil || off < 0 {
		http.Error(w, "bad off", http.StatusBadRequest)
		return
	}
	ls, err := ledger.ReadListing(s.dir)
	if err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	seg := ls.Find(shard, seq)
	if seg.Gone {
		http.Error(w, "segment compacted; re-bootstrap from snapshot", http.StatusGone)
		return
	}
	if !seg.Listed {
		http.Error(w, "unknown segment", http.StatusNotFound)
		return
	}
	// Only a pull of a live segment is a position: a refused one says
	// nothing about what the follower holds, and noting any shard number
	// would grow acked without bound.
	s.noteAck(shard, seq, off)
	f, err := os.Open(seg.Path)
	if err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	defer f.Close() //litmus:close-ok read-only WAL stream; nothing buffered to lose
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}

	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Trailer", walNextTrailer) // also keeps an empty body chunked
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	deadline := time.Now().Add(s.maxWait)
	buf := make([]byte, 64<<10)
	var next uint64 // the successor's seq, once the segment is sealed
	for {
		n, rerr := f.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return // follower went away
			}
			if flusher != nil {
				flusher.Flush()
			}
			continue
		}
		if rerr != nil && rerr != io.EOF {
			return
		}
		if next != 0 {
			// EOF after the seal: rotate wrote the segment's last bytes
			// before creating its successor, so the follower holds them all.
			w.Header().Set(walNextTrailer, strconv.FormatUint(next, 10))
			return
		}
		// EOF: sealed is a question about names alone, so each poll spends
		// one ReadDir and no stat. Sealed, it is read to EOF once more.
		ls, err := ledger.ReadListing(s.dir)
		if err != nil {
			return
		}
		if next = ls.Find(shard, seq).Next; next != 0 {
			continue
		}
		if time.Now().After(deadline) {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-time.After(s.poll):
		}
	}
}

// noteAck records a follower's pull position for one shard.
func (s *Source) noteAck(shard int, seq uint64, off int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.acked[shard] = ackState{Seq: seq, Off: off, Unix: time.Now().Unix()}
}

// ShardReplication is one shard's replication position on /cluster/status.
type ShardReplication struct {
	Shard int `json:"shard"`
	// AckedSeq/AckedOff are the last position a follower pulled from;
	// LastPullUnix when. All zero when no follower has connected.
	AckedSeq     uint64 `json:"ackedSeq"`
	AckedOff     int64  `json:"ackedOff"`
	LastPullUnix int64  `json:"lastPullUnix,omitempty"`
	// LagBytes is the live WAL bytes past the acked position — the bounded
	// replication-lag gauge (everything on disk counts as lag until some
	// follower pulls it).
	LagBytes int64 `json:"lagBytes"`
}

// SourceStatus is the /cluster/status body.
type SourceStatus struct {
	SnapshotGen   uint64             `json:"snapshotGen"`
	Shards        []ShardReplication `json:"shards"`
	TotalLagBytes int64              `json:"totalLagBytes"`
}

// Status computes the primary-side replication gauge.
func (s *Source) Status() (SourceStatus, error) {
	list, err := ledger.ReadSizedListing(s.dir)
	if err != nil {
		return SourceStatus{}, err
	}
	s.mu.Lock()
	acked := make(map[int]ackState, len(s.acked))
	for k, v := range s.acked {
		acked[k] = v
	}
	s.mu.Unlock()

	perShard := map[int]*ShardReplication{}
	order := []int{}
	for _, seg := range list.Segments {
		sr := perShard[seg.Shard]
		if sr == nil {
			a := acked[seg.Shard]
			sr = &ShardReplication{Shard: seg.Shard, AckedSeq: a.Seq, AckedOff: a.Off, LastPullUnix: a.Unix}
			perShard[seg.Shard] = sr
			order = append(order, seg.Shard)
		}
		switch {
		case seg.Seq > sr.AckedSeq:
			sr.LagBytes += seg.Size
		case seg.Seq == sr.AckedSeq && seg.Size > sr.AckedOff:
			sr.LagBytes += seg.Size - sr.AckedOff
		}
	}
	st := SourceStatus{SnapshotGen: list.SnapshotGen}
	for _, shard := range order {
		st.Shards = append(st.Shards, *perShard[shard])
		st.TotalLagBytes += perShard[shard].LagBytes
	}
	return st, nil
}

func (s *Source) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, err := s.Status()
	if err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	api.WriteJSON(w, http.StatusOK, st)
}
