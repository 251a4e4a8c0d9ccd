GO ?= go

.PHONY: all build test vet fuzz-smoke loc clean

all: build test vet

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The repository's invariants are tests (DESIGN.md §13), so vet is go vet.
vet:
	$(GO) vet ./...

# fuzz-smoke replays the committed corpora and fuzzes briefly, as CI does.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzRequestDecode -fuzztime 10s ./internal/wire/
	$(GO) test -run '^$$' -fuzz FuzzResponseDecode -fuzztime 10s ./internal/wire/
	$(GO) test -run '^$$' -fuzz FuzzTaggedFrame -fuzztime 10s ./internal/wire/
	$(GO) test -run '^$$' -fuzz FuzzDecodeClusterMap -fuzztime 10s ./internal/placement/
	$(GO) test -run '^$$' -fuzz FuzzDecodeAuthorityImage -fuzztime 10s ./internal/fleet/
	$(GO) test -run '^$$' -fuzz FuzzVolumeQualifiedName -fuzztime 10s ./internal/namespace/
	$(GO) test -run '^$$' -fuzz FuzzDecodeEntry -fuzztime 10s ./internal/journal/
	$(GO) test -run '^$$' -fuzz FuzzDecodeSnapshot -fuzztime 10s ./internal/journal/

# loc prints each directory's non-blank, non-test Go lines (testdata
# excluded): the per-package figures CHANGES.md and ROADMAP.md report.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' -exec \
		awk 'NF { d = FILENAME; sub(/\/[^\/]*$$/, "", d); n[d]++ } \
			END { for (d in n) printf "%6d %s\n", n[d], d }' {} + | sort -k2

clean:
	rm -rf bin
