#!/usr/bin/env python3
"""Validate a `cfs sim --stats-json` document against tools/stats_schema.json.

Pure-stdlib implementation of the JSON Schema subset the pin actually uses:
type, properties, required, additionalProperties, items, enum, minimum.
Exits 0 on success, 1 with a list of violations otherwise.

The pinned shape includes the two-dimensional parallelism fields: meta.batch
(pattern-lane width, >= 1 next to meta.threads) and the packed good-machine
counters batch_words_evaluated / batch_lanes_wasted, required in
totals.counters (zero on scalar runs); the driver timers may carry a
good_batch phase on batched runs.  totals.counters also requires
merges_skipped (gate merges the engines skipped as empty; element-level,
so its value depends on the shard count).

It also pins the telemetry blocks (obs/timeline.h, obs/histogram.h): a
top-level "timeline" object (always present; zero-dimension and empty when
the run was not sampled) and, in totals and every engines[] entry, the
work-attribution "histograms" (list_length / divergence_size, power-of-two
buckets with zero buckets elided) and per-level "levels" profile.  Under
-DCFS_OBS=OFF these blocks still exist but carry only zeros -- the schema
deliberately does not require non-zero counts.

The dynamic-rebalancing telemetry (sim/sharded_sim.h) is pinned too: a
top-level "rebalance" object (rebalances / faults_migrated /
elements_migrated, zero unless --rebalance fired) and a cumulative
"rebalances" field in every timeline sample's work section.

Usage: check_stats_schema.py <stats.json> [schema.json]
"""
import json
import os
import sys


def type_ok(value, t):
    if t == "object":
        return isinstance(value, dict)
    if t == "array":
        return isinstance(value, list)
    if t == "string":
        return isinstance(value, str)
    if t == "integer":
        return isinstance(value, int) and not isinstance(value, bool)
    if t == "number":
        return (isinstance(value, (int, float))
                and not isinstance(value, bool))
    if t == "boolean":
        return isinstance(value, bool)
    if t == "null":
        return value is None
    raise ValueError(f"unsupported schema type {t!r}")


def validate(value, schema, path, errors):
    t = schema.get("type")
    if t is not None and not type_ok(value, t):
        errors.append(f"{path}: expected {t}, got {type(value).__name__}")
        return
    if "enum" in schema and value not in schema["enum"]:
        errors.append(f"{path}: {value!r} not in {schema['enum']}")
    if "minimum" in schema and isinstance(value, (int, float)) \
            and not isinstance(value, bool) and value < schema["minimum"]:
        errors.append(f"{path}: {value} < minimum {schema['minimum']}")
    if isinstance(value, dict):
        props = schema.get("properties", {})
        for key in schema.get("required", []):
            if key not in value:
                errors.append(f"{path}: missing required key {key!r}")
        for key, sub in props.items():
            if key in value:
                validate(value[key], sub, f"{path}.{key}", errors)
        extra = schema.get("additionalProperties")
        if isinstance(extra, dict):
            for key, v in value.items():
                if key not in props:
                    validate(v, extra, f"{path}.{key}", errors)
    if isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            validate(item, schema["items"], f"{path}[{i}]", errors)


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    default_schema = os.path.join(os.path.dirname(os.path.abspath(argv[0])),
                                  "stats_schema.json")
    schema_path = argv[2] if len(argv) == 3 else default_schema
    with open(argv[1]) as f:
        doc = json.load(f)
    with open(schema_path) as f:
        schema = json.load(f)
    errors = []
    validate(doc, schema, "$", errors)
    if errors:
        for e in errors:
            print(f"FAIL {e}", file=sys.stderr)
        return 1
    print(f"OK {argv[1]} matches {os.path.basename(schema_path)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
