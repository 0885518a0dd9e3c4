"""Supply chain: DBS vs LDB, constants in rule heads, comparisons.

Each supplier exports its ``product`` catalogue but keeps a private
``cost`` relation — the paper's split between the full Local Database
and the shared Database Schema (§2: the DBS "describes part of LDB,
which is shared for other nodes").  The distributor's rules bake the
supplier's identity into the imported rows with a constant head term;
the retailer filters with a comparison predicate.

Run:  python examples/supply_chain.py
"""

from repro.workloads import supply_chain_scenario


def main() -> None:
    net = supply_chain_scenario(suppliers=3, seed=2)

    print("Supplier S0's schema (note the non-exported relation):")
    print("  " + "\n  ".join(str(r) for r in net.node("S0").wrapper.schema))

    print("\nWhat S0 exports to the network (its DBS):")
    for relation in net.node("S0").wrapper.schema.exported_view():
        print(f"  {relation.name}/{relation.arity}")

    outcome = net.global_update("SHOP")

    print(f"\nGlobal update: {outcome.result_messages} result messages, "
          f"{outcome.rows_imported} rows imported network-wide")

    print("\nDistributor's merged offers (supplier names from rule constants):")
    for sku, supplier, price in sorted(net.node("DIST").rows("offer"))[:8]:
        print(f"  {sku:8} {supplier:4} {price:4}")
    print(f"  ... {net.node('DIST').wrapper.count('offer')} offers total")

    print("\nRetailer's bargains (rule body: p <= 20):")
    for sku, price in sorted(net.node("SHOP").rows("bargain")):
        print(f"  {sku:8} {price}")

    # A rule body referencing the private relation would be rejected:
    try:
        net.node("S0")._validate_rule(
            __import__("repro").CoordinationRule.from_text(
                "rX", "DIST:offer(s, 'S0', p) <- S0:cost(s, p)"
            )
        )
    except Exception as exc:
        print(f"\nImporting from the private 'cost' relation fails:\n  {exc}")


if __name__ == "__main__":
    main()
