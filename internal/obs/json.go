package obs

import (
	"encoding/json"
	"io"
)

// NamedSnapshot is the JSON dump format: a snapshot tagged with the system
// (or tool) that produced it.
type NamedSnapshot struct {
	Name     string   `json:"name"`
	Snapshot Snapshot `json:"snapshot"`
}

// WriteJSON writes a named snapshot as indented JSON.
func WriteJSON(w io.Writer, name string, snap Snapshot) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(NamedSnapshot{Name: name, Snapshot: snap})
}
