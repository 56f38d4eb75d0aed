package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"repro/internal/api/apitest"
	"repro/internal/core"
	"repro/internal/ledger"
)

// benchServer builds a server on the synthetic fixture for the ingest
// hot-path benchmarks (no network: requests go straight to ServeHTTP).
func benchServer(b *testing.B) *Server {
	b.Helper()
	srv, err := New(Config{Calibration: apitest.Calibration()})
	if err != nil {
		b.Fatal(err)
	}
	return srv
}

// benchRecord renders one congested usage body for tenant t.
func benchRecord(tenant string, mem int) string {
	return fmt.Sprintf(`{"tenant":%q,"language":"py","memoryMB":%d,"tPrivate":0.08,"tShared":0.02,"probe":{"tPrivate":%g,"tShared":%g,"machineL3Misses":1.2e7}}`,
		tenant, mem, apitest.SoloTPrivate*1.3, apitest.SoloTShared*1.9)
}

// BenchmarkQuote measures the /v2/quote path — decode, price, accrue one
// record to its tenant — one request per op.
func BenchmarkQuote(b *testing.B) {
	srv := benchServer(b)
	body := []byte(benchRecord("t0", 512))
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v2/quote", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
		}
	}
}

// BenchmarkUsageStream measures the /v3/usage NDJSON ingest loop — decode,
// price, accrue — over a 512-record stream.
func BenchmarkUsageStream(b *testing.B) {
	srv := benchServer(b)
	const lines = 512
	var sb strings.Builder
	for i := 0; i < lines; i++ {
		sb.WriteString(benchRecord(fmt.Sprintf("t%d", i%8), 128+64*(i%8)))
		sb.WriteByte('\n')
	}
	body := []byte(sb.String())
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v3/usage", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
		}
	}
	b.ReportMetric(float64(lines*b.N)/b.Elapsed().Seconds(), "records/s")
}

// BenchmarkUsageStreamAdmission measures the /v3/usage NDJSON loop with
// admission on, at a rate that never throttles, over a ledger whose key
// window already holds more than ledger.DefaultMaxKeys keys: each stream
// carries a fresh Idempotency-Key, so all 512 records are keyed and new, and
// the gate's peek and the accrual's lookup miss into a node-sized index, as
// they do on a production node after warm-up.
func BenchmarkUsageStreamAdmission(b *testing.B) {
	led, err := ledger.New(ledger.Config{})
	if err != nil {
		b.Fatal(err)
	}
	fill := make([]ledger.Entry, 4096)
	results := make([]ledger.AccrualResult, len(fill))
	for n := 0; n < ledger.DefaultMaxKeys*9/8; n += len(fill) {
		for i := range fill {
			fill[i] = ledger.Entry{Tenant: fmt.Sprintf("t%d", i%4096), Pricer: "litmus", Price: 1, Key: fmt.Sprintf("fill#%d", n+i)}
		}
		led.AccrueBatch(fill, results)
	}
	runtime.GC() // the fill's garbage is set-up, not the loop's
	srv, err := New(Config{Calibration: apitest.Calibration(), Ledger: led, AdmissionRate: 1e6})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = srv.Close() })
	const lines = 512
	var sb strings.Builder
	for i := 0; i < lines; i++ {
		sb.WriteString(benchRecord(fmt.Sprintf("t%d", i%8), 128+64*(i%8)))
		sb.WriteByte('\n')
	}
	body := []byte(sb.String())
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v3/usage", bytes.NewReader(body))
		req.Header.Set("Idempotency-Key", fmt.Sprintf("stream-%d", i))
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "us/stream")
}

// benchUsageRecord is benchRecord as a typed record for the binary encoder:
// the same congested usage, so the two wire formats price identical streams.
func benchUsageRecord(tenant string, mem int) UsageRecord {
	return UsageRecord{QuoteRequest: QuoteRequest{
		Usage: core.Usage{
			Language: "py",
			MemoryMB: mem,
			TPrivate: 0.08,
			TShared:  0.02,
			Probe: &core.ProbeUsage{
				TPrivate:        apitest.SoloTPrivate * 1.3,
				TShared:         apitest.SoloTShared * 1.9,
				MachineL3Misses: 1.2e7,
			},
		},
		Tenant: tenant,
	}}
}

// benchFrameBody renders the binary-frame twin of the NDJSON bench stream.
func benchFrameBody(lines, tenants int) []byte {
	var body []byte
	for i := 0; i < lines; i++ {
		rec := benchUsageRecord(fmt.Sprintf("t%d", i%tenants), 128+64*(i%8))
		body = AppendUsageFrame(body, &rec)
	}
	return body
}

// BenchmarkUsageStreamBinary measures the binary-frame /v3/usage ingest loop
// over the same records as BenchmarkUsageStream: the NDJSON-vs-binary delta
// is the wire format's, nothing else.
func BenchmarkUsageStreamBinary(b *testing.B) {
	srv := benchServer(b)
	const lines = 512
	body := benchFrameBody(lines, 8)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v3/usage", bytes.NewReader(body))
		req.Header.Set("Content-Type", ContentTypeFrames)
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
		}
	}
	b.ReportMetric(float64(lines*b.N)/b.Elapsed().Seconds(), "records/s")
}

// BenchmarkUsageStreamBinarySharded is BenchmarkUsageStreamSharded's binary
// twin: the frame pipeline across ledger shard counts.
func BenchmarkUsageStreamBinarySharded(b *testing.B) {
	const lines = 2048
	const tenants = 64
	var body []byte
	for i := 0; i < lines; i++ {
		rec := benchUsageRecord(fmt.Sprintf("t%02d", i%tenants), 128+64*(i%8))
		body = AppendUsageFrame(body, &rec)
	}
	for _, shards := range []int{1, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			srv, err := New(Config{Calibration: apitest.Calibration(), Shards: shards})
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				req := httptest.NewRequest(http.MethodPost, "/v3/usage", bytes.NewReader(body))
				req.Header.Set("Content-Type", ContentTypeFrames)
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					b.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
				}
			}
			b.ReportMetric(float64(lines*b.N)/b.Elapsed().Seconds(), "records/s")
		})
	}
}

// BenchmarkUsageStreamSharded measures the parallel /v3/usage pipeline —
// worker-pool decode/price, sharded accrual — across ledger shard counts,
// with enough distinct tenants to spread the stripes. On a multi-core
// runner throughput should scale with shards until cores run out; the
// 1-shard case serializes every accrual behind one mutex.
func BenchmarkUsageStreamSharded(b *testing.B) {
	const lines = 2048
	const tenants = 64
	var sb strings.Builder
	for i := 0; i < lines; i++ {
		sb.WriteString(benchRecord(fmt.Sprintf("t%02d", i%tenants), 128+64*(i%8)))
		sb.WriteByte('\n')
	}
	body := []byte(sb.String())
	for _, shards := range []int{1, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			srv, err := New(Config{Calibration: apitest.Calibration(), Shards: shards})
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				req := httptest.NewRequest(http.MethodPost, "/v3/usage", bytes.NewReader(body))
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					b.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
				}
			}
			b.ReportMetric(float64(lines*b.N)/b.Elapsed().Seconds(), "records/s")
		})
	}
}

// benchNDJSONRecords is the codec benchmarks' stream: the bench stream's
// records with the optional fields a metered fleet sends (abbr, minute, key).
func benchNDJSONRecords() []UsageRecord {
	records := make([]UsageRecord, 512)
	for i := range records {
		records[i] = benchUsageRecord(fmt.Sprintf("t%d", i%8), 128+64*(i%8))
		records[i].Abbr = fmt.Sprintf("fn-%02d", i%32)
		records[i].Minute = i % 16
		records[i].Key = fmt.Sprintf("run-1#%d", i+1)
	}
	return records
}

// BenchmarkNDJSONDecode measures what one NDJSON line costs to decode: codec
// is what the server runs on lines of the strict subset (a record source over
// the stream, pooled state warm), encoding/json is the reference every other
// line falls back to.
func BenchmarkNDJSONDecode(b *testing.B) {
	records := benchNDJSONRecords()
	body, err := EncodeUsageStream(WireNDJSON, records)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("codec", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		rd := bytes.NewReader(body)
		for i := 0; i < b.N; i++ {
			rd.Reset(body)
			src := NewRecordSource(WireNDJSON, rd, DefaultMaxBodyBytes, DefaultMaxStreamLines)
			n := 0
			for {
				_, _, rej, ok := src.Next()
				if !ok {
					break
				}
				if rej != nil {
					b.Fatal(rej)
				}
				n++
			}
			src.Release()
			if n != len(records) {
				b.Fatalf("read %d of %d records", n, len(records))
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(records)), "ns/record")
	})
	b.Run("encoding-json", func(b *testing.B) {
		lines := bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n"))
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, line := range lines {
				var rec UsageRecord
				if err := json.Unmarshal(line, &rec); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(records)), "ns/record")
	})
}

// BenchmarkNDJSONEncode is the encode half: codec is AppendUsageRecord into a
// reused buffer, as the router's per-owner batches and every client do it;
// encoding/json is the encoder it falls back to, built per record as
// AppendUsageRecord builds it.
func BenchmarkNDJSONEncode(b *testing.B) {
	records := benchNDJSONRecords()
	body, err := EncodeUsageStream(WireNDJSON, records)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("codec", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		dst := make([]byte, 0, len(body))
		for i := 0; i < b.N; i++ {
			dst = dst[:0]
			for j := range records {
				if dst, err = AppendUsageRecord(dst, WireNDJSON, &records[j]); err != nil {
					b.Fatal(err)
				}
			}
		}
		if !bytes.Equal(dst, body) {
			b.Fatal("encoded stream differs")
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(records)), "ns/record")
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		dst := make([]byte, 0, len(body))
		for i := 0; i < b.N; i++ {
			buf := bytes.NewBuffer(dst[:0])
			for j := range records {
				if err := json.NewEncoder(buf).Encode(&records[j]); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(records)), "ns/record")
	})
}
