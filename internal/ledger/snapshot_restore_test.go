package ledger

import (
	"errors"
	"fmt"
	"os"
	"testing"
)

// FuzzRestoreSnapshot feeds arbitrary documents to a standby's
// RestoreSnapshot, the path a snapshot takes when it arrives from the
// network. Nothing may panic; a document it accepts must leave live state
// whole — every named account in the shard its name hashes to, with a
// Windows map and no nil window, and a name index that lists exactly the
// accounts — and a promoted standby must bill each
// restored tenant and answer its statement and the tenant listing.
func FuzzRestoreSnapshot(f *testing.F) {
	meta := Meta{Shards: 2, WindowMinutes: 1, MaxKeys: 8}
	l, err := New(Config{Dir: f.TempDir(), Shards: meta.Shards, WindowMinutes: meta.WindowMinutes, MaxKeys: meta.MaxKeys, Fsync: FsyncNever, SnapshotEvery: -1})
	if err != nil {
		f.Fatal(err)
	}
	for i := range 12 {
		e := Entry{Tenant: fmt.Sprint("t", i%5), Pricer: []string{"litmus", "commercial"}[i%2], Minute: i % 3, Commercial: 2, Price: 1, Key: fmt.Sprint("k", i%10)}
		if _, err := l.Accrue(e); err != nil {
			f.Fatal(err)
		}
	}
	if err := l.Snapshot(); err != nil {
		f.Fatal(err)
	}
	written, err := os.ReadFile(snapshotPath(l.dur.dir, l.Durability().LastSnapshotGen))
	if err != nil {
		f.Fatal(err)
	}
	if err := l.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add(written)
	head := `{"version":1,"gen":3,"takenUnix":1,"shards":2,"windowMinutes":1,"maxKeys":8,"shardStates":[`
	for _, states := range []string{
		`{},{}`,
		`{"accounts":{"a":null}},{"accounts":null}`,
		`{"accounts":{"a":{"windows":null}}},{"accounts":{"b":{"windows":{"0":null,"-3":{"bills":null}}}}}`,
		`{"accounts":{"a":{"windows":{"0":{"invocations":1,"bills":{}}}}}},{}`,
		`{"accounts":{"a":{"windows":{"0":{"bills":{"p":1,"o":3,"p":2}}}}}},{}`,
		`{"accounts":{"a":{"invocations":1},"a":{"windows":{"1":{"invocations":1},"1":null}}}},{}`,
		`{"keys":["a\u0000k","a\u0000k","b\u0000k"],"keysEvicted":2},{"keys":[""]}`,
		`{"accounts":{"a\u0000b":{"commercial":1e308,"billed":-1e308}}},{}`,
		// Refused (TestRestoreSnapshotRefusesMisplacedAccount): an unnamed
		// account, and "b", which hashes to shard 1, in shard 0.
		`{"accounts":{"":{}}},{}`,
		`{"accounts":{"b":{"invocations":1}}},{"accounts":{"b":{}}}`,
	} {
		f.Add([]byte(head + states + "]}"))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReplica(meta, 4)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.RestoreSnapshot(data); err != nil {
			return
		}
		var tenants []string
		for si, sh := range r.shards {
			sh.mu.Lock()
			if len(sh.names) != len(sh.accounts) {
				t.Errorf("shard %d: %d names for %d accounts", si, len(sh.names), len(sh.accounts))
			}
			for _, name := range sh.names {
				if name == "" || r.shardIndex(name) != uint32(si) {
					t.Fatalf("shard %d: account %q accepted outside the shard its name hashes to", si, name)
				}
				a := sh.accounts[name]
				if a == nil || a.Windows == nil {
					t.Fatalf("shard %d: account %q restored as %+v", si, name, a)
				}
				for widx, w := range a.Windows {
					if w == nil {
						t.Fatalf("shard %d: account %q window %d restored nil", si, name, widx)
					}
				}
				tenants = append(tenants, name)
			}
			sh.mu.Unlock()
		}
		if !r.Promote() {
			t.Fatal("Promote refused on a fresh replica")
		}
		entries := make([]Entry, len(tenants))
		for i, tenant := range tenants {
			entries[i] = Entry{Tenant: tenant, Pricer: "litmus", Minute: i, Commercial: 2, Price: 1, Key: "after"}
		}
		r.AccrueBatch(entries, make([]AccrualResult, len(entries)))
		for _, tenant := range tenants {
			r.Statement(tenant, 0, -1)
		}
		listed, cursor := 0, ""
		for range len(tenants) + 1 {
			var page []Summary
			page, cursor = r.Tenants(cursor, 3)
			if listed += len(page); cursor == "" {
				break
			}
		}
		if cursor != "" || listed != len(tenants) {
			t.Errorf("tenant walk listed %d of %d tenants, cursor %q left", listed, len(tenants), cursor)
		}
	})
}

// TestRestoreSnapshotRefusesMisplacedAccount: a document holding an account
// no ledger could have written — unnamed, or in a shard its name does not
// hash to — is refused whole, and the standby keeps what it held.
func TestRestoreSnapshotRefusesMisplacedAccount(t *testing.T) {
	head := `{"version":1,"gen":3,"takenUnix":1,"shards":2,"windowMinutes":1,"maxKeys":8,"shardStates":[`
	for _, states := range []string{
		`{"accounts":{"":{}}},{}`,
		`{"accounts":{"a":{},"b":{"invocations":1}}},{}`, // "b" hashes to shard 1
		`{"accounts":{"a":{}}},{"accounts":{"a":{}}}`,
	} {
		r, err := NewReplica(Meta{Shards: 2, WindowMinutes: 1, MaxKeys: 8}, 4)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.RestoreSnapshot([]byte(head + `{"accounts":{"c":{"invocations":5}}},{}]}`)); err != nil {
			t.Fatal(err)
		}
		if _, err := r.RestoreSnapshot([]byte(head + states + "]}")); !errors.Is(err, errSnapshotAccount) {
			t.Errorf("%s: RestoreSnapshot err = %v, want %v", states, err, errSnapshotAccount)
		}
		if sum, ok := r.Summary("c"); !ok || sum.Invocations != 5 {
			t.Errorf("%s: the refused document changed the standby: Summary(c) = %+v, %v", states, sum, ok)
		}
	}
}
