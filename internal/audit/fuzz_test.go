package audit

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"testing"
	"time"
)

// FuzzParseChain feeds arbitrary bytes through parseChain, the parser Open
// runs on the on-disk chain: it must never panic, every rejection must be
// ErrTampered, and a chain it accepts, re-encoded as one json.Marshal line
// per record, must parse back to the same records.
func FuzzParseChain(f *testing.F) {
	l, err := Open("")
	if err != nil {
		f.Fatal(err)
	}
	now := time.Unix(1_800_000_000, 0)
	l.now = func() time.Time { return now }
	for _, r := range []Record{
		{Actor: "alice", KeyID: "key-2", Role: "owner", Action: "analysis.create", Object: "an-1", Outcome: OutcomeOK},
		{Actor: "anonymous", Action: "analysis.read", Object: "an-1", Outcome: OutcomeDenied, Detail: "missing key"},
		{Actor: "clinic", Role: "clinic", Action: "analysis.batch_item", Outcome: OutcomeError, Detail: "invalid_request"},
	} {
		if _, err := l.Append(r); err != nil {
			f.Fatal(err)
		}
	}
	chain := encodeChain(f, l.Snapshot("", ""))
	f.Add(chain)
	f.Add(chain[:len(chain)/2])
	f.Add(bytes.ReplaceAll(chain, []byte(`"seq"`), []byte(`"SEQ"`)))
	f.Add(bytes.ReplaceAll(chain, []byte("\n"), []byte("\r\n\n  ")))
	f.Add([]byte(""))
	f.Add([]byte("{}\n"))
	f.Add([]byte("null\n"))
	f.Add([]byte(`{"seq":1,"prev_hash":"","hash":""}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		records, err := parseChain(data)
		if err != nil {
			if !errors.Is(err, ErrTampered) {
				t.Fatalf("rejection %v does not wrap ErrTampered", err)
			}
			return
		}
		again, err := parseChain(encodeChain(t, records))
		if err != nil {
			t.Fatalf("accepted chain rejected once re-encoded: %v", err)
		}
		if !reflect.DeepEqual(again, records) {
			t.Fatalf("re-encoded chain parses to %+v, want %+v", again, records)
		}
	})
}

// encodeChain writes records the way Append does: one JSON line each.
func encodeChain(tb testing.TB, records []Record) []byte {
	tb.Helper()
	var out []byte
	for _, r := range records {
		data, err := json.Marshal(r)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(append(out, data...), '\n')
	}
	return out
}
