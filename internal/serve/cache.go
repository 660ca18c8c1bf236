package serve

// The content-addressed result cache: fingerprint -> result bytes. Backed
// by the same JSONL journal machinery as the sweep checkpoints
// (internal/journal): a header line carrying the engine version, then one
// record per cached result, flushed as it is written. A restarted daemon
// replays the file leniently — a corrupt or torn record is skipped and
// logged while every readable record around it keeps serving — so one bad
// sector never discards the rest of the history. A cache written by a
// different engine version is ignored and rewritten rather than replayed,
// because its results no longer correspond to what the current engine
// would compute.

import (
	"encoding/json"
	"errors"
	"sync"
	"time"

	"prioritystar/internal/journal"
)

// cacheMagic identifies result-cache journals.
const cacheMagic = "pscache1"

// cacheRecord is one persisted result.
type cacheRecord struct {
	Key     string          `json:"key"`
	Created string          `json:"created"` // RFC 3339, informational only
	Result  json.RawMessage `json:"result"`
}

// cache is the in-memory index plus its append-only journal. A nil journal
// (no path configured) keeps the cache memory-only.
type cache struct {
	mu      sync.Mutex
	path    string
	entries map[string][]byte
	keys    []string // entries' keys in the journal's record order
	jnl     *journal.Writer
	skipped int // corrupt records skipped at load
}

// openCache loads (or creates) the cache journal at path. An empty path
// yields a memory-only cache. Corrupt records are skipped individually
// (logged via logf) rather than discarding everything after them.
func openCache(path, engine string, logf func(string, ...any)) (*cache, error) {
	c := &cache{path: path, entries: make(map[string][]byte)}
	if path == "" {
		return c, nil
	}
	validLen, found, skipped, err := journal.Load(path, cacheMagic, engine, func(line []byte) error {
		var rec cacheRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return err // skipped: corrupt record or torn tail
		}
		if rec.Key == "" || len(rec.Result) == 0 {
			return errors.New("serve: cache record missing key or result")
		}
		if _, ok := c.entries[rec.Key]; !ok {
			c.keys = append(c.keys, rec.Key)
		}
		c.entries[rec.Key] = rec.Result
		return nil
	})
	var fpErr *journal.ErrFingerprint
	if errors.As(err, &fpErr) {
		// A cache from another engine version: its results are stale by
		// definition. Start over.
		found = false
	} else if err != nil {
		return nil, err
	}
	c.skipped = skipped
	if skipped > 0 && logf != nil {
		logf("serve: result cache %s: skipped %d corrupt record(s), kept %d", path, skipped, len(c.entries))
	}
	if found {
		c.jnl, err = journal.OpenAppend(path, validLen)
	} else {
		c.jnl, err = journal.Create(path, cacheMagic, engine)
	}
	if err != nil {
		return nil, err
	}
	return c, nil
}

// get returns the cached result bytes for key.
func (c *cache) get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	b, ok := c.entries[key]
	return b, ok
}

// put stores result under key and appends it to the journal. Storing an
// already-present key is a no-op: the first result wins, keeping cache
// reads byte-stable over the daemon's lifetime.
func (c *cache) put(key string, result []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[key]; ok {
		return nil
	}
	c.entries[key] = result
	c.keys = append(c.keys, key)
	return c.jnl.Append(cacheRecord{
		Key:     key,
		Created: time.Now().UTC().Format(time.RFC3339),
		Result:  json.RawMessage(result),
	})
}

// len reports the number of cached results.
func (c *cache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// close flushes and closes the journal.
func (c *cache) close() error { return c.jnl.Close() }
