package main

import (
	"fmt"
	"regexp"
)

var (
	// validName is the metric-name rule BENCHMARK.json is held to.
	validName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	validUnit = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// checkNames checks the declared metrics and the measured values against
// each other: every declared name and unit is well formed and used once,
// and every measured value is declared. A declared metric the workload
// does not exercise reads 0 (a per-layer counter of a layer it bypasses),
// unless requireAll is set, as it is for end-to-end metrics, which must
// all be measured.
func checkNames(decl []declMetric, values map[string]float64, requireAll bool) error {
	seen := map[string]bool{}
	for _, d := range decl {
		if !validName.MatchString(d.Name) {
			return fmt.Errorf("metric name %q is not 1-64 letters, digits, '_', '.' or '-' starting with a letter or digit", d.Name)
		}
		if !validUnit.MatchString(d.Unit) {
			return fmt.Errorf("metric %s: unit %q is not 1-16 letters, digits, '_', '/', '%%', '.' or '-'", d.Name, d.Unit)
		}
		if seen[d.Name] {
			return fmt.Errorf("metric %s is declared twice", d.Name)
		}
		seen[d.Name] = true
		if _, ok := values[d.Name]; requireAll && !ok {
			return fmt.Errorf("metric %s is declared but was not measured", d.Name)
		}
	}
	for name := range values {
		if !seen[name] {
			return fmt.Errorf("measured metric %s is not declared in BENCHMARK.json", name)
		}
	}
	return nil
}
