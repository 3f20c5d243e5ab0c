"""Exit 1 unless the tests that failed in a junit XML report are exactly the
expected ones.

    python .github/check_failures.py REPORT.xml tests.test_acceptance.test_criterion_4_forbidden_band_suppression

A test counts as failed when its <testcase> holds a <failure> or <error>;
its name is the testcase's classname and name joined by a dot.  A report
without any testcase (the run never got going) fails too.
"""
import sys
import xml.etree.ElementTree as ET


def main(report: str, *expected: str) -> int:
    cases = list(ET.parse(report).iter("testcase"))
    failed = {
        f"{case.get('classname')}.{case.get('name')}"
        for case in cases
        if case.find("failure") is not None or case.find("error") is not None
    }
    print(f"{len(cases)} tests, failed: {sorted(failed) or 'none'}")
    if not cases:
        print("no tests ran")
        return 1
    if failed != set(expected):
        print(f"unexpected failures: {sorted(failed - set(expected)) or 'none'}")
        print(f"expected failures that passed: {sorted(set(expected) - failed) or 'none'}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
