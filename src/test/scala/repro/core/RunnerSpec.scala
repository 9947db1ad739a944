package repro.core

import repro.SparkSpec
import repro.core.ErrorType._
import repro.data.{BenchDataset, DataSpec, Gen}
import repro.data.Gen.{MRow, Rng}

/** Small end-to-end run of the full pipeline (one error type, two models,
  * few splits) — the full grid runs under bench/.
  */
class RunnerSpec extends SparkSpec {

  private val cfg = RunConfig(splits = 2, seeds = 1, searchK = 1,
    parallelism = 4, models = Seq("decision_tree", "naive_bayes"))

  private lazy val rel = Runner.run(spark, cfg, Set(Inconsistencies))

  test("measurement grid covers every spec at every split") {
    val meas = rel.measurements
    val expected = Specs.r1(cfg.models, Set(Inconsistencies))
    // inconsistencies: 4 datasets × 1 method × 2 scenarios × 2 models
    assert(expected.size == 16)
    assert(meas.count() == expected.size.toLong * cfg.splits)
    val got = meas.select("dataset", "error_type", "detect", "repair", "model", "scenario")
      .distinct().collect()
      .map(r => Specs.R1Spec(r.getString(0), r.getString(1), r.getString(2),
        r.getString(3), r.getString(4), r.getString(5))).toSet
    assert(got == expected.toSet)
  }

  test("R1 has one flagged row per spec") {
    assert(rel.r1.count() == 16)
    val flags = rel.r1.select("flag").distinct().collect().map(_.getString(0)).toSet
    assert(flags.subsetOf(Set("P", "S", "N")))
  }

  test("R2 and R3 have the selected-down spec counts") {
    assert(rel.r2.count() == 8)  // 4 datasets × 2 scenarios
    assert(rel.r3.count() == 8)  // same: only one cleaning method for inconsistencies
  }

  test("metrics are valid probabilities") {
    val bad = rel.measurements.filter(
      "test_b < 0 OR test_b > 1 OR test_d < 0 OR test_d > 1 OR " +
      "val_b < 0 OR val_b > 1 OR val_d < 0 OR val_d > 1").count()
    assert(bad == 0)
  }

  test("printTable15 renders without error") {
    Runner.printTable15(rel, Inconsistencies)
  }

  test("measurements do not depend on the number of cells in flight") {
    val small = cfg.copy(splits = 1)
    def rows(parallelism: Int): Seq[String] =
      Runner.measurements(spark, small.copy(parallelism = parallelism), Set(Inconsistencies))
        .collect().map(_.toString).sorted.toSeq
    val serial = rows(1)
    assert(serial.size == 16)
    assert(rows(4) == serial)
  }

  test("R1-R3 add no Spark jobs to the measurement grid") {
    val small = cfg.copy(splits = 1)
    val grid = jobsOf(Runner.measurements(spark, small, Set(Inconsistencies)))
    val run = jobsOf(Runner.run(spark, small, Set(Inconsistencies)))
    assert(run <= grid, s"Runner.run issued $run jobs, its measurement grid $grid")
  }

  /** Declares duplicates but no key column, so its duplicate cleaning throws. */
  private object Keyless extends BenchDataset {
    val spec = DataSpec(name = "Keyless", rows = 100, numeric = Seq("x"),
      categorical = Nil, errors = Set(Duplicates))
    protected def genClean(rng: Rng): IndexedSeq[MRow] = (0 until spec.rows).map { i =>
      val r = Gen.newRow()
      val x = rng.gaussian()
      r("x") = x
      finish(r, i.toLong, 2 * x, rng)
    }
    protected def inject(rows: IndexedSeq[MRow], error: ErrorType, variant: String,
                         rng: Rng): IndexedSeq[MRow] = rows
  }

  test("a failing cell names its dataset, error type and split, and keeps the cause") {
    val err = intercept[RuntimeException](
      Runner.measurements(spark, cfg.copy(splits = 1), Set(Duplicates), Seq(Keyless)))
    Seq("dataset=Keyless", "error=duplicates", "split=0").foreach(k =>
      assert(err.getMessage.contains(k), err.getMessage))
    assert(err.getCause.getMessage.contains("Keyless has no key column"))
  }

  test("parallelism defaults to the processor count") {
    assert(RunConfig().parallelism == Runtime.getRuntime.availableProcessors)
  }
}
