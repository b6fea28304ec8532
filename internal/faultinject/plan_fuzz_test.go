package faultinject

import (
	"regexp"
	"strings"
	"testing"
)

// indexForm is ParsePlan's documented index grammar: a decimal number,
// "*", or "N+".
var indexForm = regexp.MustCompile(`^(\*|[0-9]+\+?)$`)

// documentedKinds are the kind names ParsePlan's doc comment lists.
var documentedKinds = map[string]Kind{
	"error": KindError, "blackhole": KindBlackhole, "http-error": KindHTTPError,
	"truncate-body": KindTruncateBody, "delay": KindDelay, "panic": KindPanic,
	"torn-write": KindTornWrite,
}

// FuzzParsePlan drives arbitrary strings through ParsePlan, the -chaos flag
// decoder. It must never panic, and every spec it accepts must name a
// documented kind, carry a well-formed index whose fault matches it, and
// keep its option values in range.
func FuzzParsePlan(f *testing.F) {
	for _, seed := range []string{
		"blackhole|net.127.0.0.1:18081|200+",
		"delay|net.a:1|*|delay=5ms;once, error|cpu|3",
		"http-error|net.x|0|code=503,truncate-body|net.y|7+|keep=12",
		"torn-write|journal|2|keep=5",
		"panic|s|+5", "error|s|-0", "error|s|5++", "error||1", "bogus|s|1",
		"delay|s|*|delay=xyz", "http-error|s|1|code=99", ",, ,",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, specs string) {
		plan, err := ParsePlan(specs)
		if err != nil {
			return
		}
		var raw []string
		for _, spec := range strings.Split(specs, ",") {
			if spec = strings.TrimSpace(spec); spec != "" {
				raw = append(raw, spec)
			}
		}
		if len(raw) != len(plan.Faults) {
			t.Fatalf("%q: %d specs gave %d faults", specs, len(raw), len(plan.Faults))
		}
		for i, f := range plan.Faults {
			parts := strings.Split(raw[i], "|")
			if kind, ok := documentedKinds[parts[0]]; !ok || kind != f.Kind {
				t.Fatalf("%q: spec %d kind %q parsed as %v", specs, i, parts[0], f.Kind)
			}
			idx := parts[2]
			if !indexForm.MatchString(idx) {
				t.Fatalf("%q: spec %d accepted index %q", specs, i, idx)
			}
			switch {
			case idx == "*":
				if f.Index != AnyIndex || f.From != 0 {
					t.Fatalf("%q: spec %d: * gave Index %d From %d", specs, i, f.Index, f.From)
				}
			case strings.HasSuffix(idx, "+"):
				if f.Index != AnyIndex || f.From < 0 {
					t.Fatalf("%q: spec %d: %s gave Index %d From %d", specs, i, idx, f.Index, f.From)
				}
			default:
				if f.Index < 0 || f.From != 0 {
					t.Fatalf("%q: spec %d: %s gave Index %d From %d", specs, i, idx, f.Index, f.From)
				}
			}
			if f.Site == "" || f.Delay < 0 || f.KeepBytes < 0 || (f.Code != 0 && (f.Code < 100 || f.Code > 599)) {
				t.Fatalf("%q: spec %d accepted out-of-range fields %+v", specs, i, f)
			}
		}
	})
}
