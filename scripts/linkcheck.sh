#!/bin/sh
# linkcheck.sh — offline markdown link checker for README.md and the
# docs/ tree. Pure shell + standard tools, no network: relative links
# must resolve on disk, and anchor links (same-file or cross-file)
# must match a heading slug in the target document. External http(s)
# and mailto links are skipped — CI must not depend on the internet.
#
# It also resolves every *.md path named in a Go file (comments and
# strings alike; testdata/ excluded): first relative to that file's
# directory, then relative to the repo root. A miss fails the check
# the same way a broken link does.
set -eu

cd "$(dirname "$0")/.."
fail=0

# slug STREAM — GitHub-style heading slugs: lowercase, drop anything
# but alphanumerics/spaces/hyphens, spaces become hyphens.
slugs() { # file
	grep '^#' "$1" |
		sed 's/^#*[[:space:]]*//' |
		tr 'A-Z' 'a-z' |
		sed 's/[^a-z0-9 -]//g; s/ /-/g'
}

check_file() { # file
	f="$1"
	dir="$(dirname "$f")"
	# Inline links: [text](target). Reference-style links are not used
	# in this repo.
	grep -o '\[[^]]*\]([^)]*)' "$f" | sed 's/^.*](//; s/)$//' | while IFS= read -r link; do
		case "$link" in
		http://* | https://* | mailto:*) continue ;;
		esac
		target="${link%%#*}"
		anchor=""
		case "$link" in
		*'#'*) anchor="${link#*#}" ;;
		esac
		if [ -n "$target" ]; then
			path="$dir/$target"
			if [ ! -e "$path" ]; then
				echo "$f: broken link: ($link) -> $path does not exist"
				echo bad >> "$FAILFLAG"
				continue
			fi
		else
			path="$f"
		fi
		if [ -n "$anchor" ]; then
			case "$path" in
			*.md)
				if ! slugs "$path" | grep -qx "$anchor"; then
					echo "$f: broken anchor: ($link) -> no heading slug '$anchor' in $path"
					echo bad >> "$FAILFLAG"
				fi
				;;
			esac
		fi
	done
}

FAILFLAG="$(mktemp)"
trap 'rm -f "$FAILFLAG"' EXIT

files="README.md"
for f in docs/*.md; do
	[ -e "$f" ] && files="$files $f"
done

for f in $files; do
	check_file "$f"
done

# check_go_refs FILE — every *.md path the Go file names must exist.
# Absolute paths and URL tails (a leading '/') are skipped.
check_go_refs() { # file
	f="$1"
	dir="$(dirname "$f")"
	grep -oE '[A-Za-z0-9_./-]+\.md([^A-Za-z0-9_]|$)' "$f" |
		sed -E 's/[^A-Za-z0-9_]$//' | sort -u | while IFS= read -r ref; do
		case "$ref" in
		/*) continue ;;
		esac
		if [ ! -e "$dir/$ref" ] && [ ! -e "$ref" ]; then
			echo "$f: broken doc reference: $ref (neither $dir/$ref nor ./$ref exists)"
			echo bad >> "$FAILFLAG"
		fi
	done
}

gofiles=0
for f in $(find . -name '*.go' -not -path '*/testdata/*' -not -path './.git/*' | sort); do
	check_go_refs "$f"
	gofiles=$((gofiles + 1))
done

if [ -s "$FAILFLAG" ]; then
	echo "FAIL: $(wc -l < "$FAILFLAG") broken links"
	exit 1
fi
echo "PASS: all relative links and anchors in $files resolve, and every *.md named in $gofiles Go files exists"
