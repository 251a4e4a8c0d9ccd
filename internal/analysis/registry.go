package analysis

// Registry returns every analyzer in the suite, in stable order. The
// //anufs:allow hygiene checks run implicitly with any of them.
func Registry() []*Analyzer {
	return []*Analyzer{
		SimDeterminism,
		LockDiscipline,
		GoroutineLife,
		ErrCode,
	}
}

// pathHasSuffix reports whether the import path ends with one of the
// given slash-separated suffixes. Matching by suffix rather than full
// path lets the analyzers apply equally to the real module and to the
// fixture modules the golden tests typecheck.
func pathHasSuffix(path string, suffixes ...string) bool {
	for _, s := range suffixes {
		if path == s || len(path) > len(s) && path[len(path)-len(s)-1] == '/' && path[len(path)-len(s):] == s {
			return true
		}
	}
	return false
}
