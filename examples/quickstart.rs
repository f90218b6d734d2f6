//! Quickstart: the paper's running example, end to end.
//!
//! Reproduces Section 2's arithmetic — the $62-vs-$64.60 introduction, the
//! EC2/S3/bandwidth charges — then runs the real pipeline on generated
//! sales data: measure, select under a budget, materialize, and reconcile
//! the predicted bill with a simulated invoice.
//!
//! Run with: `cargo run --example quickstart`

use mvcloud::cost::{CloudCostModel, CostContext, QueryCharge, ViewCharge};
use mvcloud::pricing::presets;
use mvcloud::units::{Gb, Hours, Money, Months};
use mvcloud::{sales_domain, Advisor, AdvisorConfig, Scenario, SolverKind};

fn main() {
    // ------------------------------------------------------------------
    // Part 1 — the paper's numbers, from the cost models alone.
    // ------------------------------------------------------------------
    println!("== The running example (paper Section 2) ==\n");
    let pricing = presets::aws_2012();
    let small = pricing.compute.instance("small").unwrap().clone();
    let model = CloudCostModel::new(CostContext {
        pricing,
        instance: small,
        nb_instances: 2,
        months: Months::new(12.0),
        dataset_size: Gb::new(500.0),
        workload: vec![QueryCharge::new("Q", Gb::new(10.0), Hours::new(50.0))],
    });
    let without = model.without_views();
    println!("without views:\n{without}\n");

    // V1 = "sales per month and country".
    let v1 = ViewCharge::new("V1", Gb::new(50.0), Hours::new(1.0), Hours::new(5.0), 1)
        .answers(0, Hours::new(40.0));
    let with = model.with_views(&[v1], &mvcloud::cost::SelectionSet::full(1));
    println!("with V1 materialized:\n{with}\n");
    println!(
        "V1 saves {} of compute but adds {} of storage per year.\n",
        without.compute() - with.compute(),
        with.storage - without.storage,
    );

    // ------------------------------------------------------------------
    // Part 2 — the real pipeline on generated data.
    // ------------------------------------------------------------------
    println!("== The advisor pipeline on generated sales data ==\n");
    let domain = sales_domain(10_000, 5, 1.0, 42);
    let advisor = Advisor::build(domain, AdvisorConfig::default()).unwrap();

    let budget = advisor.problem().baseline().cost() + Money::from_dollars(1);
    let outcome = advisor.solve(Scenario::budget(budget), SolverKind::PaperKnapsack);
    let names: Vec<String> = advisor
        .candidates()
        .iter()
        .map(|c| c.label.clone())
        .collect();
    println!("{}\n", mvcloud::report::summarize(&outcome, &names));

    // Materialize the chosen views and serve a query through them.
    let catalog = advisor.materialize_selection(&outcome).unwrap();
    let q = &advisor.queries()[0];
    let (result, _, used) = catalog.execute(q, &advisor.domain().base).unwrap();
    println!(
        "query {:?} answered from {} -> {} rows",
        q.name,
        used.as_deref().unwrap_or("the base table"),
        result.num_rows()
    );

    // Reconcile the prediction with a simulated provider invoice.
    let invoice = advisor
        .usage_ledger(&outcome)
        .invoice(&advisor.config().pricing)
        .unwrap();
    println!("\n{invoice}");
    assert_eq!(invoice.total(), outcome.evaluation.cost());
    println!("\ninvoice total matches the cost model's prediction exactly.");
}
