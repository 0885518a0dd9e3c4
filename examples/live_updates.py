"""Live updates: repeated global updates, churn and inconsistency quarantine.

Three behaviours around the paper's update algorithm, all in one
scenario:

* **repeated updates** — after local inserts at a source, the next
  global update carries just the new rows downstream (what the links
  already delivered stays off the wire);
* **quarantine** — a node that becomes locally inconsistent (key
  violation) stops exporting data until repaired (§1d: "local
  inconsistency does not propagate");
* **churn** — a node crashes; the failure detector closes its links
  and a global update still terminates (§1's dynamic-network claim).

Run:  python examples/live_updates.py
"""

from repro import CoDBNetwork


def main() -> None:
    net = CoDBNetwork(seed=13)
    net.add_node("SENSOR", "reading(tick!: int, value: int)")
    net.add_node("GATEWAY", "reading(tick: int, value: int)")
    net.add_node("CLOUD", "reading(tick: int, value: int)")
    net.add_rule("GATEWAY:reading(t, v) <- SENSOR:reading(t, v)")
    net.add_rule("CLOUD:reading(t, v) <- GATEWAY:reading(t, v)")
    net.start()
    net.global_update("CLOUD")  # establish the materialisation

    print("Inserts at the sensor reach the cloud with the next update:")
    for tick in range(3):
        net.node("SENSOR").insert("reading", (tick, tick * 10))
    outcome = net.global_update("CLOUD")
    print(f"  cloud now has {net.node('CLOUD').wrapper.count('reading')} readings "
          f"({outcome.report.total_rows_imported} new at the cloud side)")

    print("\nA conflicting reading makes the sensor inconsistent "
          "(duplicate key, different value):")
    net.node("SENSOR").insert("reading", (1, 999))
    outcome = net.global_update("CLOUD")
    violations = net.node("SENSOR").wrapper.key_violations()
    print(f"  sensor violations: {violations}")
    print(f"  sensor quarantined: "
          f"{net.node('SENSOR').update_report(outcome.update_id).quarantined}")
    print(f"  cloud rows (unchanged): {net.node('CLOUD').wrapper.count('reading')}")

    print("\nRepair the sensor; service resumes:")
    net.node("SENSOR").wrapper.delete_rows("reading", [(1, 999)])
    net.node("SENSOR").insert("reading", (3, 30))
    net.global_update("CLOUD")
    print(f"  cloud rows: {net.node('CLOUD').wrapper.count('reading')}")

    print("\nThe gateway crashes:")
    net.node("GATEWAY").detach()
    net.node("SENSOR").insert("reading", (4, 40))
    net.run()

    print("\nA fresh global update from the cloud still terminates:")
    outcome = net.global_update("CLOUD")
    report = net.node("CLOUD").update_report(outcome.update_id)
    print(f"  status={report.status}, failure closures network-wide="
          f"{sum(r.links_closed_by_failure for r in outcome.report.node_reports.values())}")
    print(f"  cloud rows (gateway gone): {net.node('CLOUD').wrapper.count('reading')}")


if __name__ == "__main__":
    main()
