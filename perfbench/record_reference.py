"""Record the reduce workload's reference outputs.

Run from the repository root at the commit whose outputs are the
reference (the benchmark's parent commit):

    python3 perfbench/record_reference.py

Writes ``perfbench/reference/reduce.json``: for each of the reduce
workload's value streams, per stream position, the interval and a digest of
the admissible sets from ``iidiag solve --json``; plus the same for each
fixture by name.
"""

from __future__ import annotations

import json
import shutil

from run import ROOT, fresh_dir, import_workloads

COUNT = 3000  # ops per stream, rounded up to whole blocks; ops past them get structural checks only


def record_stream(workloads, stream: int) -> list:
    workdir = fresh_dir(ROOT / ".perfbench_work" / "record-reference")
    reduce = workloads.Reduce(stream, workdir)
    reduce.reference, reduce.fixture_reference = [], {}
    entries = []
    try:
        for block in reduce.blocks():
            for doc, path, _ in block:
                result = workloads.cli_solve(path)
                workloads.check_cli_solve(doc, result)
                out = json.loads(result[1])
                entries.append([*out["interval"], workloads.policies_digest(out["policies"])])
            if len(entries) >= COUNT:
                return entries
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> None:
    workloads, _ = import_workloads()
    streams = [record_stream(workloads, s) for s in range(workloads.VALUE_STREAMS)]
    fixtures = dict(zip(workloads.corpus.FIXTURES, streams[0]))  # every stream starts with them
    blocks = (",\n".join(json.dumps(e) for e in entries) for entries in streams)
    text = (
        f'{{"value_streams": {workloads.VALUE_STREAMS},\n'
        f'"fixtures": {json.dumps(fixtures, sort_keys=True)},\n'
        f'"streams": [\n' + ",\n".join(f"[\n{b}\n]" for b in blocks) + "\n]}\n"
    )
    out = workloads.REFERENCE
    out.parent.mkdir(exist_ok=True)
    out.write_text(text, encoding="utf-8")
    print(f"wrote {len(streams)} streams of {[len(e) for e in streams]} entries"
          f" to {out.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
