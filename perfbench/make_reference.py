"""Record the reference outputs the benchmark's checks compare against.

    python3 perfbench/make_reference.py

reference/verify_report.txt is the text ``bolkit verify-paper`` prints.
reference/analyze.json holds, for every analyze base table in its own
labeling, the fields of its structure report.  Each seed's relabeled tables
are checked against it after mapping their element sets back.  Re-record
only when a change to bolkit is meant to change these outputs.
"""

import json
import sys

from run import SRC


def main() -> None:
    sys.path.insert(0, str(SRC))
    import workloads
    from bolkit.structure import structure_report
    from bolkit.verify import VerificationSuite, report_lines

    text = "\n".join(report_lines(VerificationSuite().run())) + "\n"
    workloads.VERIFY_REFERENCE.write_text(text, encoding="utf-8")
    fields = {
        name: workloads.report_fields(structure_report(build()))
        for name, build in workloads.ANALYZE_BASES.items()
    }
    lines = [f"{json.dumps(name)}: {json.dumps(f)}" for name, f in fields.items()]
    workloads.ANALYZE_REFERENCE.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")


if __name__ == "__main__":
    main()
