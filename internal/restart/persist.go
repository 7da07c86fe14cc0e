package restart

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// StateFile is the planner-state file written alongside the §4.5
// checkpoint. A manager restart that finds it resumes with warm morph
// decisions instead of paying a cold re-sweep.
const StateFile = "planner-state.json"

// StateCarrier is anything that can snapshot its internal caches to
// bytes and restore them — implemented by autoconfig.Planner. The
// carrier owns the format; this package owns durability (atomic
// write-then-rename next to the checkpoint, like the manifest).
type StateCarrier interface {
	ExportState() ([]byte, error)
	ImportState(data []byte) error
}

// Section names of the planner-state file.
const (
	// SectionPlanner is the autoconfig.Planner cache snapshot.
	SectionPlanner = "planner"
	// SectionMeter is the price.Meter cost-accounting snapshot: the
	// cumulative dollars a warm-resumed manager continues from.
	SectionMeter = "meter"
)

// Sections maps section names to their carriers — what SaveSections
// persists together in one planner-state.json and LoadSections
// restores from it.
type Sections map[string]StateCarrier

// SaveSections snapshots every carrier into one atomic
// dir/planner-state.json, each under its section name:
//
//	{"planner": {…}, "meter": {…}}
//
// The write is atomic (temp file + rename), so a crash mid-save leaves
// the previous state intact — the same discipline the checkpoint
// manifest uses.
// Sections are emitted in sorted-name order so the file is
// byte-deterministic for identical state.
func SaveSections(dir string, sections Sections) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	names := make([]string, 0, len(sections))
	for name := range sections {
		names = append(names, name)
	}
	sort.Strings(names)
	doc := make(map[string]json.RawMessage, len(names))
	for _, name := range names {
		data, err := sections[name].ExportState()
		if err != nil {
			return fmt.Errorf("restart: %s: %w", name, err)
		}
		doc[name] = data
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	path := filepath.Join(dir, StateFile)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	return nil
}

// LoadSections restores the requested sections from
// dir/planner-state.json. found reports per section whether a
// snapshot was present and imported; a missing file is a cold start
// (all false, no error), and a file missing *some* requested section
// (e.g. pre-meter state files written before cost accounting existed)
// restores what it has and leaves the rest untouched — backward
// compatibility for old state files.
//
// Legacy files written before the sectioned format hold a bare
// planner snapshot at the top level (recognized by its "version"
// field); those load as SectionPlanner.
func LoadSections(dir string, sections Sections) (found map[string]bool, err error) {
	found = make(map[string]bool, len(sections))
	data, err := os.ReadFile(filepath.Join(dir, StateFile))
	if os.IsNotExist(err) {
		return found, nil
	}
	if err != nil {
		return found, fmt.Errorf("restart: %w", err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(data, &doc); err != nil {
		return found, fmt.Errorf("restart: %w", err)
	}
	if _, legacy := doc["version"]; legacy {
		// Pre-sectioned format: the whole document is the planner
		// snapshot.
		if c, ok := sections[SectionPlanner]; ok {
			if err := c.ImportState(data); err != nil {
				return found, fmt.Errorf("restart: %w", err)
			}
			found[SectionPlanner] = true
		}
		return found, nil
	}
	names := make([]string, 0, len(sections))
	for name := range sections {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		raw, ok := doc[name]
		if !ok {
			continue
		}
		if err := sections[name].ImportState(raw); err != nil {
			return found, fmt.Errorf("restart: %s: %w", name, err)
		}
		found[name] = true
	}
	return found, nil
}
