#!/usr/bin/env bash
# check-links.sh — verify that every relative markdown link (and #anchor)
# in the documentation resolves to an existing file (and heading), and that
# every `path.go:Name` code label names a top-level func, method, type, var
# or const declared in that file (path relative to the repository root).
# External http(s) links are skipped: CI should not depend on the network.
# Run from the repository root.
set -u

errors=0

# slug mimics GitHub's heading slugger closely enough for these docs:
# lowercase, drop everything but [a-z0-9 -] (multi-byte punctuation like
# § and — disappears byte-wise under LC_ALL=C), then spaces to hyphens.
slug() {
  printf '%s\n' "$1" \
    | tr '[:upper:]' '[:lower:]' \
    | LC_ALL=C sed -e 's/[^a-z0-9 -]//g' -e 's/ /-/g'
}

has_anchor() { # $1 = markdown file, $2 = anchor slug
  local line heading
  while IFS= read -r line; do
    case $line in
    '#'*)
      heading=$(printf '%s\n' "$line" | sed -e 's/^#*[[:space:]]*//')
      if [ "$(slug "$heading")" = "$2" ]; then
        return 0
      fi
      ;;
    esac
  done <"$1"
  return 1
}

# declares reports whether Go file $1 declares $2 at top level: a func or
# method, or a type, var or const, alone or inside a grouped ( ) block.
declares() {
  awk -v name="$2" '
    /^(const|var|type) \($/ { grp = 1; next }
    grp && /^\)/ { grp = 0; next }
    grp && $0 ~ "^\t" name "([ \t,=\\[]|$)" { found = 1 }
    $0 ~ "^func (\\([^)]*\\) )?" name "[(\\[]" { found = 1 }
    $0 ~ "^(type|var|const) " name "([ \t,=\\[]|$)" { found = 1 }
    END { exit !found }
  ' "$1"
}

docs="README.md DESIGN.md EXPERIMENTS.md ROADMAP.md"
for f in docs/*.md; do
  [ -e "$f" ] && docs="$docs $f"
done

for f in $docs; do
  [ -e "$f" ] || continue
  dir=$(dirname "$f")
  # Our docs never break a [text](target) link across lines, and targets
  # never contain spaces, so line-wise extraction is exact.
  targets=$(grep -o '\[[^]]*\]([^)]*)' "$f" | sed 's/.*](\([^)]*\))/\1/') || true
  for t in $targets; do
    case $t in
    http://* | https://* | mailto:*) continue ;;
    esac
    path=${t%%#*}
    anchor=${t#*#}
    if [ "$anchor" = "$t" ]; then
      anchor=""
    fi
    resolved=$f
    if [ -n "$path" ]; then
      resolved=$dir/$path
      if [ ! -e "$resolved" ]; then
        echo "$f: broken link: $t ($resolved does not exist)"
        errors=$((errors + 1))
        continue
      fi
    fi
    if [ -n "$anchor" ]; then
      case $resolved in
      *.md)
        if ! has_anchor "$resolved" "$anchor"; then
          echo "$f: broken anchor: $t"
          errors=$((errors + 1))
        fi
        ;;
      esac
    fi
  done
done

labels=0
for f in $docs; do
  [ -e "$f" ] || continue
  for l in $(grep -o '`[^` ]*\.go:[A-Za-z_][A-Za-z0-9_]*`' "$f" | tr -d '`'); do
    labels=$((labels + 1))
    file=${l%:*}
    name=${l##*:}
    if [ ! -e "$file" ]; then
      echo "$f: broken label: $l ($file does not exist)"
      errors=$((errors + 1))
    elif ! declares "$file" "$name"; then
      echo "$f: broken label: $l ($file declares no top-level $name)"
      errors=$((errors + 1))
    fi
  done
done

if [ "$errors" -gt 0 ]; then
  echo "check-links: $errors broken link(s) or label(s)"
  exit 1
fi
echo "check-links: all relative links and $labels code labels resolve"
