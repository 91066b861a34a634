#!/bin/sh
# docs_guard.sh — fails CI when the documentation drifts from the code:
# every HTTP route documented in README/OPERATIONS/docs/api.md must be
# registered verbatim in internal/valserve/http.go (a fleet route in
# internal/evalnet), every standalone
# backtick-quoted `-flag` must be defined by some cmd/ binary and every
# flag a cmd/ binary defines must be quoted in one of those docs, every
# backtick-quoted internal/, cmd/ or scripts/ path must exist, every
# *.md file cited from a Go comment must be in the tree, and every
# algorithm name the service accepts must have its row in ARCHITECTURE.md's
# Estimator map. Run from the repo root: sh scripts/docs_guard.sh
set -eu

status=0

# --- Routes -----------------------------------------------------------
# Documented routes look like "GET /v1/jobs/{id}/events"; the Go 1.22
# ServeMux patterns in http.go use the identical spelling, so a plain
# fixed-string grep is the staleness check. The fleet's routes
# (/v1/fleet/...) are served by the coordinator's own listener, so they
# must appear as a quoted pattern in a non-test file of internal/evalnet:
# quoted, so the package's prose does not count as a registration.
routes=$(grep -ohE '(GET|POST|DELETE) /(v1/[A-Za-z0-9/{}:_-]*|healthz)' \
	README.md OPERATIONS.md docs/api.md | sort -u)
evalnet_src=$(ls internal/evalnet/*.go | grep -v '_test\.go$')
while IFS= read -r route; do
	[ -n "$route" ] || continue
	case "$route" in
	*" /v1/fleet/"*)
		# shellcheck disable=SC2086 # evalnet_src is a list of paths
		if ! grep -qF "\"$route\"" $evalnet_src; then
			echo "stale docs: route \"$route\" is documented but not registered in internal/evalnet" >&2
			status=1
		fi
		;;
	*)
		if ! grep -qF "$route" internal/valserve/http.go; then
			echo "stale docs: route \"$route\" is documented but not registered in internal/valserve/http.go" >&2
			status=1
		fi
		;;
	esac
done <<EOF
$routes
EOF

# --- Flags ------------------------------------------------------------
# Standalone backticked flags (`-journal`, `-job-ttl`, …) must be
# defined via the flag package in some cmd/*/main.go. Flags quoted with
# arguments (`-data femnist`) are deliberately not matched.
flags=$(grep -ohE '`-[a-z][a-z-]*`' README.md OPERATIONS.md docs/api.md |
	tr -d '`' | sed 's/^-//' | sort -u)
while IFS= read -r f; do
	[ -n "$f" ] || continue
	if ! grep -qE "flag\.[A-Za-z0-9]+\(\"$f\"" cmd/*/main.go; then
		echo "stale docs: flag \"-$f\" is documented but not defined in any cmd/*/main.go" >&2
		status=1
	fi
done <<EOF
$flags
EOF

# The reverse: every flag a cmd/*/main.go defines must appear as a
# backticked `-flag` in README.md, OPERATIONS.md or docs/api.md, alone or
# with arguments (`-data femnist`), so no flag ships undocumented.
documented=$(grep -ohE '`-[a-z][a-z0-9-]*' README.md OPERATIONS.md docs/api.md |
	tr -d '`' | sed 's/^-//' | sort -u)
defined=$(grep -ohE 'flag\.[A-Za-z0-9]+\("[a-z][a-z0-9-]*"' cmd/*/main.go |
	sed 's/^.*("//; s/"$//' | sort -u)
while IFS= read -r f; do
	[ -n "$f" ] || continue
	if ! printf '%s\n' "$documented" | grep -qxF -- "$f"; then
		echo "undocumented flag: \"-$f\" is defined in a cmd/*/main.go but quoted in none of README.md, OPERATIONS.md, docs/api.md" >&2
		status=1
	fi
done <<EOF
$defined
EOF

# --- fedvallint analyzers ---------------------------------------------
# The "Enforced invariants" table in ARCHITECTURE.md documents one row
# per analyzer; its first column must match `fedvallint -list` exactly,
# so adding or removing an analyzer forces the documentation to follow.
documented=$(sed -n '/^## Enforced invariants/,/^## Deployment/p' ARCHITECTURE.md |
	grep -oE '^\| `[a-z]+`' | tr -d '|` ' | sort)
actual=$(go run ./cmd/fedvallint -list | sort)
if [ "$documented" != "$actual" ]; then
	echo "stale docs: ARCHITECTURE.md \"Enforced invariants\" table does not match fedvallint -list" >&2
	echo "documented: $(echo "$documented" | tr '\n' ' ')" >&2
	echo "actual:     $(echo "$actual" | tr '\n' ' ')" >&2
	status=1
fi

# --- Estimator map ----------------------------------------------------
# The "Estimator map" table in ARCHITECTURE.md has one row per valuer; the
# backticked names in its first column must be exactly the case labels of
# valserve.NewValuer, so a new algorithm cannot land without saying what
# it draws, how it reduces and how exact it is.
documented=$(sed -n '/^## Estimator map/,/^## Anytime valuation flow/p' ARCHITECTURE.md |
	grep -E '^\| `' | cut -d'|' -f2 | grep -oE '`[a-z-]+`' | tr -d '`' | sort)
actual=$(sed -n '/^func NewValuer(/,/^}/p' internal/valserve/valserve.go |
	grep -E '^[[:space:]]*case ' | grep -oE '"[a-z-]+"' | tr -d '"' | sort)
if [ "$documented" != "$actual" ]; then
	echo "stale docs: ARCHITECTURE.md \"Estimator map\" table does not match the algorithms of valserve.NewValuer" >&2
	echo "documented: $(echo "$documented" | tr '\n' ' ')" >&2
	echo "actual:     $(echo "$actual" | tr '\n' ' ')" >&2
	status=1
fi

# --- Paths ------------------------------------------------------------
# A backticked `internal/<pkg>`, `cmd/<bin>` or `scripts/<file>` (with or
# without arguments or a deeper file path after it) must exist in the
# tree, so deleting a package or a script forces the prose to follow. A
# package-qualified name (`internal/combin.Coalition`) is checked as its
# package.
paths=$(grep -ohE '`(internal|cmd|scripts)/[A-Za-z0-9_./-]+' \
	README.md ARCHITECTURE.md OPERATIONS.md docs/api.md | tr -d '`' | sort -u)
while IFS= read -r p; do
	[ -n "$p" ] || continue
	if [ ! -e "$p" ] && [ ! -e "${p%.[A-Z]*}" ]; then
		echo "stale docs: path \"$p\" is documented but does not exist" >&2
		status=1
	fi
done <<EOF
$paths
EOF

# --- Markdown files cited from Go comments -----------------------------
# A comment that sends its reader to FOO.md must name a file that exists,
# at the repo root or under docs/. bench/ is its own module with its own
# README and is not scanned.
cited=$(grep -rhoE --include='*.go' --exclude-dir=bench --exclude-dir=testdata \
	'//.*[A-Za-z0-9_-]\.md\b' . | grep -oE '[A-Za-z0-9_/-]+\.md\b' | sort -u)
while IFS= read -r f; do
	[ -n "$f" ] || continue
	if [ ! -e "$f" ] && [ ! -e "docs/$f" ]; then
		echo "stale docs: \"$f\" is cited from a Go comment but does not exist" >&2
		status=1
	fi
done <<EOF
$cited
EOF

if [ "$status" -eq 0 ]; then
	echo "docs guard: all documented routes, flags, analyzers, algorithms, paths and cited files exist"
fi
exit "$status"
