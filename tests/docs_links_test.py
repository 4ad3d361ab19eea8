#!/usr/bin/env python3
"""Every relative link in the repository's markdown resolves.

Each local link in each .md file must point at a real file, and a
#fragment must match a real heading's GitHub-style anchor, so renaming
a section breaks the build, not the reader (docs/README.md).

Usage: docs_links_test.py [REPO_ROOT]   (default: this script's repo)
"""

import os
import re
import sys

LINK_RE = re.compile(r"\]\(([^)\s]+)\)")
HEADING_RE = re.compile(r"^(#{1,6})\s+(.*)$")
SKIP_DIRS = (".", "build", "cmake-build-")  # hidden and build trees


def anchors_of(path, cache={}):
    if path not in cache:
        seen, out = {}, set()
        with open(path) as f:
            for line in f:
                m = HEADING_RE.match(line)
                if not m:
                    continue
                title = m.group(2).strip().replace("`", "")
                slug = re.sub(r"[^\w\- ]", "", title.lower()).replace(" ", "-")
                n = seen.get(slug, 0)
                seen[slug] = n + 1
                out.add(slug if n == 0 else f"{slug}-{n}")
        cache[path] = out
    return cache[path]


def markdown_files(root):
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith(SKIP_DIRS))
        for name in sorted(filenames):
            if name.endswith(".md"):
                yield os.path.relpath(os.path.join(dirpath, name), root)


def broken_links(root):
    bad = []
    for md in markdown_files(root):
        with open(os.path.join(root, md)) as f:
            text = f.read()
        for target in LINK_RE.findall(text):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            path_part, _, frag = target.partition("#")
            path = md if not path_part else os.path.normpath(
                os.path.join(os.path.dirname(md), path_part))
            # Badge-style links escape the repo (../../actions/...): they
            # resolve on github.com, not in the tree.
            if path.startswith(".."):
                continue
            full = os.path.join(root, path)
            if not os.path.exists(full):
                bad.append(f"{md}: {target}")
            elif frag and path.endswith(".md") and frag not in anchors_of(full):
                bad.append(f"{md}: {target} (no heading for #{frag})")
    return bad


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    bad = broken_links(root)
    if bad:
        print("broken relative links:\n" + "\n".join(bad))
        return 1
    print("docs_links_test: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
