package confine

import (
	"strings"
	"testing"
)

// TestRules checks each row of the table for the shape run relies on.
// A package row must allow the package itself: otherwise every method
// call or field selection inside it on its own values would be reported
// as a laundered use. Its import message takes the import path and its
// selector message the selected name, each as the one %s verb. A
// construct row reports through msg alone.
func TestRules(t *testing.T) {
	for _, r := range rules {
		r := r
		t.Run(r.confined, func(t *testing.T) {
			if len(r.allowed) == 0 || r.msg == "" {
				t.Fatalf("row %q: empty allowed list or message", r.confined)
			}
			if r.confined == goStmt || r.confined == recoverCall {
				if r.sel != "" || strings.Contains(r.msg, "%") {
					t.Errorf("construct row %q: has a selector message or a format verb", r.confined)
				}
				return
			}
			self := false
			for _, a := range r.allowed {
				self = self || pathIs(r.confined, a)
			}
			if !self {
				t.Errorf("package row %q does not allow the package itself: %v", r.confined, r.allowed)
			}
			for _, m := range []string{r.msg, r.sel} {
				if strings.Count(m, "%") != 1 || strings.Count(m, "%s") != 1 {
					t.Errorf("package row %q: message %q needs exactly one %%s", r.confined, m)
				}
			}
		})
	}
}
