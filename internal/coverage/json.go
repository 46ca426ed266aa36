package coverage

import "encoding/json"

// matrixJSON is the wire form of a Matrix: enough for dashboards and
// scripts to consume coverage without re-deriving the table shape.
type matrixJSON struct {
	Machine   string     `json:"machine"`
	States    []string   `json:"states"`
	Events    []string   `json:"events"`
	Hits      [][]uint64 `json:"hits"` // [state][event]
	Defined   int        `json:"defined"`
	Active    int        `json:"active"`
	Reachable int        `json:"reachable"`
	Coverage  float64    `json:"coverage"`
}

// MarshalJSON encodes the matrix with its summary (no Impossible mask;
// callers needing masked summaries should emit Summarize themselves).
func (m *Matrix) MarshalJSON() ([]byte, error) {
	s := m.Summarize(nil)
	return json.Marshal(matrixJSON{
		Machine:   m.Spec.Name,
		States:    m.Spec.States,
		Events:    m.Spec.Events,
		Hits:      m.Hits,
		Defined:   s.Defined,
		Active:    s.Active,
		Reachable: s.Reachable,
		Coverage:  s.Coverage(),
	})
}

// MarshalJSON encodes a summary.
func (s Summary) MarshalJSON() ([]byte, error) {
	return json.Marshal(map[string]any{
		"machine":    s.Machine,
		"defined":    s.Defined,
		"impossible": s.Impossible,
		"reachable":  s.Reachable,
		"active":     s.Active,
		"hits":       s.Hits,
		"coverage":   s.Coverage(),
	})
}
