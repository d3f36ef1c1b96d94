"""Run the whole identity catalog and read the verification reports.

Every report certifies exact coefficient equality through a stated order;
identities that are conjectural as statements between the raw series are
labelled so.  Run with:  python demos/03_identity_suite.py
"""
import json

from blowup_series import verify_all

ORDER = 20

print(f"running the catalog at order {ORDER} (bivariate identities at 12)...\n")
reports = verify_all(ORDER, bivariate_order=12)

width = max(len(r.identity) for r in reports)
for report in reports:
    flag = "pass" if report.passed else "FAIL"
    print(f"  {report.identity:<{width}}  order {report.order:>3}  {flag}  [{report.status}]")

print("\nfull JSON of one report:")
print(json.dumps(reports[0].to_json(), indent=2, sort_keys=True))

failures = [r for r in reports if not r.passed]
print(f"\n{len(reports)} identities checked, {len(failures)} failures")
