#!/usr/bin/env python3
"""Validate Prometheus text exposition format v0.0.4 (stdlib only).

Usage:
    check_prom.py FILE          # validate a scrape saved to a file
    ... | check_prom.py -       # validate stdin
    check_prom.py FILE --require FAMILY [--require FAMILY ...]
                                # additionally fail unless each named
                                # family has at least one sample; a
                                # trailing '*' matches any suffix
                                # (e.g. --require 'muppet_slo_*')

Checks, per the exposition-format spec:
  * every line is a comment (# HELP / # TYPE), a sample, or blank
  * metric and label names are legal ([a-zA-Z_:][a-zA-Z0-9_:]*)
  * label values use only \\\\ \\" \\n escapes
  * sample values parse as int/float (Inf/NaN allowed)
  * at most one TYPE line per family, appearing before its samples
  * a family's samples are contiguous (no interleaving)
  * every labeled series of a histogram family has _bucket/_sum/_count
    samples, and its le ladder is cumulative (monotone non-decreasing),
    ends at +Inf, and has a +Inf bucket equal to its _count
  * no duplicate sample (same name + label set)

Exit status 0 = valid; 1 = violations (printed one per line).
"""

import re
import sys

METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
# name, optional {labels}, value, optional timestamp
SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(.*)\})?"
    r" ([^ ]+)"
    r"(?: (-?\d+))?$"
)
LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')
VALID_ESCAPES = {"\\", '"', "n"}


def base_family(name):
    """Strip histogram/summary sample suffixes to get the family name."""
    for suffix in ("_bucket", "_sum", "_count"):
        if name.endswith(suffix):
            return name[: -len(suffix)]
    return name


def parse_labels(raw, lineno, errors):
    labels = {}
    pos = 0
    while pos < len(raw):
        m = LABEL_RE.match(raw, pos)
        if m is None:
            errors.append(f"line {lineno}: malformed labels: {{{raw}}}")
            return labels
        name, value = m.group(1), m.group(2)
        if not LABEL_NAME_RE.match(name):
            errors.append(f"line {lineno}: bad label name {name!r}")
        i = 0
        while i < len(value):
            if value[i] == "\\":
                if i + 1 >= len(value) or value[i + 1] not in VALID_ESCAPES:
                    errors.append(
                        f"line {lineno}: bad escape in label value {value!r}"
                    )
                    break
                i += 2
            else:
                i += 1
        if name in labels:
            errors.append(f"line {lineno}: duplicate label {name!r}")
        labels[name] = value
        pos = m.end()
        if pos < len(raw):
            if raw[pos] != ",":
                errors.append(f"line {lineno}: expected ',' in labels")
                return labels
            pos += 1
    return labels


def parse_value(text):
    if text in ("+Inf", "Inf"):
        return float("inf")
    if text == "-Inf":
        return float("-inf")
    if text == "NaN":
        return float("nan")
    return float(text)  # raises ValueError on garbage


def validate(text):
    errors = []
    types = {}  # family -> declared type
    family_done = set()  # families whose sample block has ended
    current_family = None
    seen_samples = set()
    # (family, labels other than le) -> {"buckets": [(le, v, lineno)],
    # "sum": v, "count": v}: each labeled series has its own ladder.
    histograms = {}

    for lineno, line in enumerate(text.split("\n"), start=1):
        if line == "":
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 2 and parts[1] in ("HELP", "TYPE"):
                if len(parts) < 3:
                    errors.append(f"line {lineno}: truncated {parts[1]} line")
                    continue
                family = parts[2]
                if not METRIC_NAME_RE.match(family):
                    errors.append(
                        f"line {lineno}: bad metric name {family!r}"
                    )
                if parts[1] == "TYPE":
                    kind = parts[3].strip() if len(parts) > 3 else ""
                    if kind not in (
                        "counter", "gauge", "histogram", "summary", "untyped"
                    ):
                        errors.append(
                            f"line {lineno}: unknown type {kind!r}"
                        )
                    if family in types:
                        errors.append(
                            f"line {lineno}: duplicate TYPE for {family}"
                        )
                    if family in family_done or any(
                        base_family(s.split("{")[0]) == family
                        for s in seen_samples
                    ):
                        errors.append(
                            f"line {lineno}: TYPE for {family} after its "
                            "samples"
                        )
                    types[family] = kind
            # bare comments are fine
            continue

        m = SAMPLE_RE.match(line)
        if m is None:
            errors.append(f"line {lineno}: unparsable sample: {line!r}")
            continue
        name, raw_labels, raw_value = m.group(1), m.group(2), m.group(3)
        labels = parse_labels(raw_labels, lineno, errors) if raw_labels else {}
        try:
            value = parse_value(raw_value)
        except ValueError:
            errors.append(f"line {lineno}: bad value {raw_value!r}")
            continue

        family = base_family(name)
        if family != current_family:
            if family in family_done:
                errors.append(
                    f"line {lineno}: samples of {family} are not contiguous"
                )
            if current_family is not None:
                family_done.add(current_family)
            current_family = family

        key = name + "{" + ",".join(
            f'{k}="{v}"' for k, v in sorted(labels.items())
        ) + "}"
        if key in seen_samples:
            errors.append(f"line {lineno}: duplicate sample {key}")
        seen_samples.add(key)

        if types.get(family) == "histogram":
            series_labels = ",".join(
                f'{k}="{v}"' for k, v in sorted(labels.items()) if k != "le"
            )
            series = f"{family}{{{series_labels}}}" if series_labels else family
            h = histograms.setdefault(
                series, {"buckets": [], "sum": None, "count": None}
            )
            if name.endswith("_bucket"):
                if "le" not in labels:
                    errors.append(
                        f"line {lineno}: histogram bucket without le label"
                    )
                else:
                    h["buckets"].append((labels["le"], value, lineno))
            elif name.endswith("_sum"):
                h["sum"] = value
            elif name.endswith("_count"):
                h["count"] = value

    for series, h in sorted(histograms.items()):
        if not h["buckets"]:
            errors.append(f"histogram {series}: no _bucket samples")
            continue
        if h["count"] is None:
            errors.append(f"histogram {series}: missing _count")
        if h["sum"] is None:
            errors.append(f"histogram {series}: missing _sum")
        prev = None
        for le, value, lineno in h["buckets"]:
            if prev is not None and value < prev:
                errors.append(
                    f"line {lineno}: histogram {series} le={le} bucket "
                    f"count {value} < previous {prev} (not cumulative)"
                )
            prev = value
        last_le = h["buckets"][-1][0]
        if last_le != "+Inf":
            errors.append(
                f"histogram {series}: bucket ladder ends at le={last_le!r}, "
                "not +Inf"
            )
        elif h["count"] is not None and h["buckets"][-1][1] != h["count"]:
            errors.append(
                f"histogram {series}: +Inf bucket {h['buckets'][-1][1]} != "
                f"_count {h['count']}"
            )

    return errors, len(seen_samples), seen_samples


def check_required(required, seen_samples, errors):
    """Each required family (exact, or prefix via a trailing '*') must
    have at least one sample in the scrape."""
    families = {base_family(s.split("{")[0]) for s in seen_samples}
    for req in required:
        if req.endswith("*"):
            prefix = req[:-1]
            if not any(f.startswith(prefix) for f in families):
                errors.append(f"required family {req!r}: no sample with "
                              "that prefix")
        elif req not in families:
            errors.append(f"required family {req!r}: no samples")


def main(argv):
    args = argv[1:]
    required = []
    while "--require" in args:
        i = args.index("--require")
        if i + 1 >= len(args):
            print(__doc__.strip(), file=sys.stderr)
            return 2
        required.append(args[i + 1])
        del args[i:i + 2]
    if len(args) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    if args[0] == "-":
        text = sys.stdin.read()
    else:
        with open(args[0], "r", encoding="utf-8") as f:
            text = f.read()
    errors, samples, seen_samples = validate(text)
    check_required(required, seen_samples, errors)
    for e in errors:
        print(f"check_prom: {e}", file=sys.stderr)
    if errors:
        print(f"check_prom: FAIL ({len(errors)} violations)", file=sys.stderr)
        return 1
    print(f"check_prom: OK ({samples} samples)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
