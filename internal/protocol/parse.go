package protocol

import (
	"fmt"
	"io"
	"strings"
)

// This file gives transition tables a textual form, in the manner of
// Ruby's SLICC: protocol tables can be reviewed and versioned as text
// (figures -exp specs prints every table this way). The dynamic
// semantics (actions) still live in controllers; the table is the
// contract the coverage machinery, renderers and documentation all
// share.
//
// Grammar (line-oriented):
//
//	protocol <name>
//	states   <S0> <S1> ...
//	events   <E0> <E1> ...
//	<state> <event> -> <next> [label...]   # defined transition
//	<state> <event> stall                  # stall cell
//
// Unlisted (state, event) pairs are Undefined, as in SLICC.

// Format writes the spec in its textual form.
func (s *Spec) Format(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "protocol %s\nstates %s\nevents %s\n",
		s.Name, strings.Join(s.States, " "), strings.Join(s.Events, " ")); err != nil {
		return err
	}
	for st := range s.States {
		for ev := range s.Events {
			cell := s.cells[st][ev]
			switch cell.Kind {
			case Stall:
				if _, err := fmt.Fprintf(w, "%s %s stall\n", s.States[st], s.Events[ev]); err != nil {
					return err
				}
			case Defined:
				line := fmt.Sprintf("%s %s -> %s", s.States[st], s.Events[ev], s.States[cell.Next])
				if cell.Label != "" {
					line += " " + cell.Label
				}
				if _, err := fmt.Fprintln(w, line); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
