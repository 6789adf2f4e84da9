package turbo_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"
)

// CHANGES.md is append-only: once an entry is recorded its text never
// changes and it is never removed. CHANGES.sum holds one line per recorded
// entry, in file order — the SHA-256 of the entry's text and its label —
// and only grows. After appending an entry to CHANGES.md, record it with
//
//	go test -run TestChangelogAppendOnly . -record-changes
//
// which appends the digests of the entries past the recorded ones and
// never rewrites a recorded line. The check reads only the two committed
// files, so it needs no git history.
var recordChanges = flag.Bool("record-changes", false, "append the digests of unrecorded CHANGES.md entries to CHANGES.sum")

// minRecordedEntries is the number of entries CHANGES.sum held when the
// check was added; a shorter list means recorded lines were deleted.
const minRecordedEntries = 24

// entryHeader starts a changelog entry: "PR 7: …" or "- PR 28 follow-up: …".
var entryHeader = regexp.MustCompile(`^(?:- )?(PR \d+[^:]*):`)

type changelogEntry struct {
	label, text string
}

// changelogEntries splits CHANGES.md into entries: a header line and every
// line up to the next header (tables, blank lines).
func changelogEntries(t *testing.T, path string) []changelogEntry {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var entries []changelogEntry
	var lines []string
	flush := func() {
		if len(entries) > 0 {
			entries[len(entries)-1].text = strings.Join(lines, "\n")
		}
	}
	for i, line := range strings.Split(strings.TrimRight(string(raw), "\n"), "\n") {
		if m := entryHeader.FindStringSubmatch(line); m != nil {
			flush()
			entries = append(entries, changelogEntry{label: m[1]})
			lines = lines[:0]
		} else if len(entries) == 0 {
			t.Fatalf("%s:%d: text before the first entry", path, i+1)
		}
		lines = append(lines, line)
	}
	flush()
	return entries
}

func (e changelogEntry) digest() string {
	sum := sha256.Sum256([]byte(e.text))
	return hex.EncodeToString(sum[:])
}

// TestChangelogAppendOnly fails when a recorded CHANGES.md entry is
// removed, reordered or edited by so much as one byte; entries appended
// after the recorded ones pass, recorded or not.
func TestChangelogAppendOnly(t *testing.T) {
	entries := changelogEntries(t, "CHANGES.md")
	f, err := os.Open("CHANGES.sum")
	if err != nil {
		t.Fatal(err)
	}
	var recorded []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		recorded = append(recorded, sc.Text())
	}
	f.Close()
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(recorded) < minRecordedEntries {
		t.Fatalf("CHANGES.sum has %d lines, fewer than the %d it was started with: recorded digests were deleted", len(recorded), minRecordedEntries)
	}
	for i, line := range recorded {
		if i >= len(entries) {
			t.Fatalf("CHANGES.sum:%d records %q, but CHANGES.md has only %d entries: an entry was removed", i+1, line, len(entries))
		}
		if want := entries[i].digest() + "  " + entries[i].label; line != want {
			t.Errorf("CHANGES.md entry %d (%s) does not match CHANGES.sum:%d (%q): a recorded entry was edited, removed or reordered", i+1, entries[i].label, i+1, line)
		}
	}
	if t.Failed() || len(entries) == len(recorded) {
		return
	}
	if !*recordChanges {
		t.Logf("%d appended entries are not recorded yet; run with -record-changes to record them", len(entries)-len(recorded))
		return
	}
	out, err := os.OpenFile("CHANGES.sum", os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries[len(recorded):] {
		fmt.Fprintf(out, "%s  %s\n", e.digest(), e.label)
	}
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}
}
