package ilm

import (
	"fmt"
	"strconv"
	"strings"

	"pie/api"
	"pie/inferlet"
)

// defaultVersion is assumed when a program's manifest omits one.
const defaultVersion = "1.0.0"

// parseVersion parses a semantic version "major[.minor[.patch]]" — one to
// three plain numbers, no leading zeros — into its numeric components.
// Pre-release/build suffixes are not supported: the registry wants a total
// order.
func parseVersion(v string) ([3]int, error) {
	var out [3]int
	parts := strings.Split(v, ".")
	if len(parts) == 0 || len(parts) > 3 {
		return out, fmt.Errorf("ilm: bad version %q", v)
	}
	for i, p := range parts {
		n, err := strconv.Atoi(p)
		if err != nil || n < 0 || (len(p) > 1 && p[0] == '0') {
			return out, fmt.Errorf("ilm: bad version %q", v)
		}
		out[i] = n
	}
	return out, nil
}

// CanonicalVersion parses v (see parseVersion) and renders it as
// "major.minor.patch", so "1.0" and "1.0.0" key the same registry entry and
// the same fleet manifest pin.
func CanonicalVersion(v string) (string, error) {
	p, err := parseVersion(v)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%d.%d.%d", p[0], p[1], p[2]), nil
}

// versionLess orders two parsed versions.
func versionLess(a, b [3]int) bool {
	for i := 0; i < 3; i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// validateManifest checks a program's deployment contract against the
// catalog's trait closure. Violations return api.ErrUnsatisfiedManifest
// with the specific requirement named, so deployments fail at register or
// launch time rather than deep inside a running inferlet.
func validateManifest(name string, m inferlet.Manifest, catalog []api.ModelInfo) error {
	fail := func(format string, args ...interface{}) error {
		return fmt.Errorf("%w: program %q: %s", api.ErrUnsatisfiedManifest, name,
			fmt.Sprintf(format, args...))
	}
	if m.Limits.MaxQueues < 0 || m.Limits.MaxKvPages < 0 || m.Limits.Deadline < 0 {
		return fail("negative resource limit")
	}
	byID := make(map[api.ModelID]api.ModelInfo, len(catalog))
	for _, info := range catalog {
		byID[info.ID] = info
	}
	satisfies := func(info api.ModelInfo) (api.Trait, bool) {
		for _, t := range m.Traits {
			if !info.HasTraitClosure(t) {
				return t, false
			}
		}
		return "", true
	}
	if len(m.Models) > 0 {
		for _, id := range m.Models {
			info, ok := byID[id]
			if !ok {
				return fail("required model %q not installed", id)
			}
			if t, ok := satisfies(info); !ok {
				return fail("model %q lacks required trait %q", id, t)
			}
		}
		return nil
	}
	if len(m.Traits) > 0 {
		// No pinned models: some installed model must serve every trait.
		for _, info := range catalog {
			if _, ok := satisfies(info); ok {
				return nil
			}
		}
		return fail("no installed model implements required traits %v", m.Traits)
	}
	return nil
}
