package repro.core

import org.apache.spark.sql.DataFrame

import repro.{Oracle, SparkSpec}

class RelationsSpec extends SparkSpec {

  import spark.implicits._

  private def m(dataset: String = "D", detect: String = "SD", repair: String = "delete",
                scenario: String = "BD", model: String = "knn", split: Int = 0,
                seed: Int = 0, valB: Double = 0.5, testB: Double = 0.5,
                valD: Double = 0.5, testD: Double = 0.5): Measurement =
    Measurement(dataset, "outliers", detect, repair, scenario, model, split, seed,
      valB, testB, valD, testD)

  test("r1Pairs averages the metric pair over search seeds") {
    val meas = Seq(
      m(seed = 0, testB = 0.60, testD = 0.70),
      m(seed = 1, testB = 0.62, testD = 0.74)).toDF()
    val row = Relations.r1Pairs(meas).head()
    assert(math.abs(row.getAs[Double]("b") - 0.61) < 1e-12)
    assert(math.abs(row.getAs[Double]("d") - 0.72) < 1e-12)
  }

  test("r2Pairs selects per side the model with the best validation score") {
    val meas = Seq(
      m(model = "knn", valB = 0.9, testB = 0.80, valD = 0.5, testD = 0.55),
      m(model = "xgboost", valB = 0.7, testB = 0.99, valD = 0.8, testD = 0.85)).toDF()
    val row = Relations.r2Pairs(meas).head()
    assert(row.getAs[Double]("b") == 0.80)       // knn wins the B side on val_b
    assert(row.getAs[Double]("d") == 0.85)       // xgboost wins the D side on val_d
    assert(row.getAs[Double]("best_val") == 0.8)
  }

  test("r2Pairs also selects over seeds (paper Table 11)") {
    val meas = Seq(
      m(seed = 0, valD = 0.7, testD = 0.71),
      m(seed = 1, valD = 0.9, testD = 0.93)).toDF()
    assert(Relations.r2Pairs(meas).head().getAs[Double]("d") == 0.93)
  }

  /** R2's argmax per side as a DuckDB window query over `meas`. */
  private val R2OracleSql =
    """WITH bs AS (
      |  SELECT dataset, error_type, detect, repair, scenario, split, test_b,
      |         ROW_NUMBER() OVER (PARTITION BY dataset, error_type, detect, repair, scenario, split
      |                            ORDER BY CAST(val_b AS DOUBLE) DESC, model ASC, CAST(seed AS INT) ASC) AS rn
      |  FROM meas),
      |ds AS (
      |  SELECT dataset, error_type, detect, repair, scenario, split, test_d, val_d,
      |         ROW_NUMBER() OVER (PARTITION BY dataset, error_type, detect, repair, scenario, split
      |                            ORDER BY CAST(val_d AS DOUBLE) DESC, model ASC, CAST(seed AS INT) ASC) AS rn
      |  FROM meas)
      |SELECT bs.dataset, bs.error_type, bs.detect, bs.repair, bs.scenario,
      |       CAST(bs.split AS INT) AS split,
      |       CAST(bs.test_b AS DOUBLE) AS b,
      |       CAST(ds.test_d AS DOUBLE) AS d,
      |       CAST(ds.val_d AS DOUBLE) AS best_val
      |FROM bs JOIN ds
      |  ON bs.dataset = ds.dataset AND bs.error_type = ds.error_type
      | AND bs.detect = ds.detect AND bs.repair = ds.repair
      | AND bs.scenario = ds.scenario AND bs.split = ds.split
      |WHERE bs.rn = 1 AND ds.rn = 1""".stripMargin

  /** A grid of three models × two detectors × three splits × two seeds whose
    * validation scores come from `validation`.
    */
  private def r2Grid(rng: scala.util.Random, validation: () => Double): DataFrame =
    (for {
      model <- Seq("knn", "xgboost", "naive_bayes")
      detect <- Seq("SD", "IQR"); split <- 0 to 2; seed <- 0 to 1
    } yield m(model = model, detect = detect, split = split, seed = seed,
        valB = validation(), testB = rng.nextDouble(),
        valD = validation(), testD = rng.nextDouble())).toDF()

  private def assertR2MatchesOracle(meas: DataFrame): Unit =
    Oracle.assertEquivalent(Relations.r2Pairs(meas)
      .select("dataset", "error_type", "detect", "repair", "scenario", "split", "b", "d", "best_val"),
      R2OracleSql, "meas" -> meas)

  test("r2Pairs matches a DuckDB window-argmax (oracle-checked)") {
    val rng = new scala.util.Random(3)
    assertR2MatchesOracle(r2Grid(rng, () => rng.nextDouble()))
  }

  test("r2Pairs breaks validation ties by model, then seed, as DuckDB's window does") {
    // Three validation values over six rows per group: most groups tie.
    val rng = new scala.util.Random(5)
    val meas = r2Grid(rng, () => Seq(0.5, 0.7, 0.9)(rng.nextInt(3)))
    val groupsWithTies = meas.groupBy("detect", "split", "val_d").count().filter("count > 1").count()
    assert(groupsWithTies > 0)
    assertR2MatchesOracle(meas)
  }

  test("r3Pairs selects the cleaning method with the best clean-side validation") {
    val meas = Seq(
      m(detect = "SD", repair = "delete", valD = 0.95, testB = 0.93, testD = 0.97),
      m(detect = "IQR", repair = "impute_mean", valD = 0.94, testB = 0.86, testD = 0.95)).toDF()
    val row = Relations.r3Pairs(Relations.r2Pairs(meas)).head()
    // Paper Table 9: SD+delete wins on validation; its pair is used.
    assert(row.getAs[Double]("b") == 0.93)
    assert(row.getAs[Double]("d") == 0.97)
  }

  test("r3Pairs breaks best-validation ties by detect, then repair") {
    val meas = Seq(
      m(detect = "IQR", repair = "delete", valD = 0.8, testB = 0.11, testD = 0.12),
      m(detect = "SD", repair = "delete", valD = 0.9, testB = 0.21, testD = 0.22),
      m(detect = "IQR", repair = "impute_median", valD = 0.9, testB = 0.31, testD = 0.32),
      m(detect = "IQR", repair = "impute_mean", valD = 0.9, testB = 0.41, testD = 0.42)).toDF()
    val row = Relations.r3Pairs(Relations.r2Pairs(meas)).head()
    // IQR < SD wins the tie on detect; impute_mean < impute_median on repair.
    assert((row.getAs[Double]("b"), row.getAs[Double]("d")) == ((0.41, 0.42)))
  }

  test("r3Pairs matches a DuckDB window-argmax over tied methods (oracle-checked)") {
    val rng = new scala.util.Random(6)
    val meas = (for {
      detect <- Seq("SD", "IQR", "IF"); repair <- Seq("delete", "impute_mean")
      scenario <- Seq("BD", "CD"); split <- 0 to 2
    } yield m(detect = detect, repair = repair, scenario = scenario, split = split,
        valB = rng.nextDouble(), testB = rng.nextDouble(),
        valD = Seq(0.5, 0.9)(rng.nextInt(2)), testD = rng.nextDouble())).toDF()
    val r2 = Relations.r2Pairs(meas)
    Oracle.assertEquivalent(Relations.r3Pairs(r2),
      """SELECT dataset, error_type, scenario, CAST(split AS INT) AS split,
        |       CAST(b AS DOUBLE) AS b, CAST(d AS DOUBLE) AS d
        |FROM (SELECT *, ROW_NUMBER() OVER (PARTITION BY dataset, error_type, scenario, split
        |                                   ORDER BY CAST(best_val AS DOUBLE) DESC, detect ASC, repair ASC) AS rn
        |      FROM r2)
        |WHERE rn = 1""".stripMargin,
      "r2" -> r2)
  }

  test("r1Pairs: the seed mean adds seeds in seed order, whatever the partitioning") {
    // Summed in pairs, (x0 + x1) + (x2 + x3), or backwards, these four
    // metrics give a different double than summed in seed order.
    val xs = Seq(0.1, 0.2, 0.3, 0.6)
    val inOrder = xs.foldLeft(0.0)(_ + _)
    assert((xs(0) + xs(1)) + (xs(2) + xs(3)) != inOrder && xs.reverse.foldLeft(0.0)(_ + _) != inOrder)
    val rows = xs.zipWithIndex.map { case (x, seed) => m(seed = seed, testB = x, testD = x) }
    def means(rdd: org.apache.spark.rdd.RDD[Measurement]): Seq[Long] = {
      val r = Relations.r1Pairs(rdd.toDF()).head()
      Seq("b", "d").map(c => java.lang.Double.doubleToLongBits(r.getAs[Double](c)))
    }
    val expected = Seq.fill(2)(java.lang.Double.doubleToLongBits(inOrder / xs.size))
    val halves = spark.sparkContext.parallelize(rows, 2)
    assert(halves.glom().collect().map(_.map(_.seed).toSeq).toSeq == Seq(Seq(0, 1), Seq(2, 3)))
    assert(means(halves) == expected)
    assert(means(spark.sparkContext.parallelize(rows.reverse, 1)) == expected)
  }

  test("r1, r2 and r3 over a stored frame issue one Spark job each") {
    val tmp = java.nio.file.Files.createTempDirectory("relations-spec").toFile
    val dir = new java.io.File(tmp, "meas").getPath
    (for { detect <- Seq("SD", "IQR"); model <- Seq("knn", "xgboost"); split <- 0 to 3; seed <- 0 to 1 }
      yield m(detect = detect, model = model, split = split, seed = seed, testD = 0.5 + 0.01 * split))
      .toDF().repartition(2).write.parquet(dir)
    val stored = spark.read.parquet(dir)
    try Seq[DataFrame => DataFrame](Relations.r1(_), Relations.r2(_), Relations.r3(_)).foreach { r =>
      assert(jobsOf(r(stored)) == 1)
    } finally org.apache.commons.io.FileUtils.deleteDirectory(tmp)
  }

  test("flagOf: P needs a0 and a1 below alpha, N a0 and a2; alpha itself is S") {
    val a = 0.05
    val cases = Seq(
      // (a0,  a1,   a2,   flag)
      (0.01, 0.01, 1.0,  Flag.Positive),
      (0.01, 1.0,  0.01, Flag.Negative),
      (0.01, 0.01, 0.01, Flag.Positive),
      (0.01, 0.5,  0.5,  Flag.Insignificant),
      (0.5,  0.01, 1.0,  Flag.Insignificant),
      (0.5,  1.0,  0.01, Flag.Insignificant),
      (a,    0.01, 1.0,  Flag.Insignificant),
      (0.01, a,    1.0,  Flag.Insignificant),
      (0.01, 1.0,  a,    Flag.Insignificant))
    cases.foreach { case (a0, a1, a2, flag) =>
      assert(Relations.flagOf(a0, a1, a2, a) == flag, s"flagOf($a0, $a1, $a2)")
    }
  }

  test("flags: clear improvement over 8 splits is P") {
    val meas = (0 until 8).map(s =>
      m(split = s, testB = 0.60 + 0.002 * s, testD = 0.70 + 0.002 * s)).toDF()
    val r1 = Relations.r1(meas)
    assert(r1.count() == 1)
    assert(r1.head().getAs[String]("flag") == Flag.Positive)
  }

  test("flags: clear degradation is N, noise is S") {
    val rng = new scala.util.Random(1)
    val neg = (0 until 8).map(s => m(dataset = "NEG", split = s,
      testB = 0.80 + 0.002 * s, testD = 0.70 + 0.002 * s))
    val noise = (0 until 8).map(s => m(dataset = "NOISE", split = s,
      testB = 0.7 + 0.05 * rng.nextGaussian(), testD = 0.7 + 0.05 * rng.nextGaussian()))
    val r1 = Relations.r1((neg ++ noise).toDF())
    val flags = r1.collect().map(r => r.getAs[String]("dataset") -> r.getAs[String]("flag")).toMap
    assert(flags("NEG") == Flag.Negative)
    assert(flags("NOISE") == Flag.Insignificant)
  }

  test("flags: p-values do not depend on the order the pairs arrive in") {
    // These differences sum to different doubles forwards and backwards, and
    // the p-values differ in their last bits. One partition hands the
    // aggregate the pairs in input order.
    val diffs = Seq(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, -0.3)
    val pairs = diffs.zipWithIndex.map { case (x, s) => ("D", s, 0.0, x) }
    def adjusted(rows: Seq[(String, Int, Double, Double)]): Seq[Long] = {
      val r = Relations.flags(rows.toDF("dataset", "split", "b", "d").coalesce(1),
        Seq("dataset"), 0.05).head()
      Seq("p0", "p1", "p2", "p0_adj", "p1_adj", "p2_adj")
        .map(c => java.lang.Double.doubleToLongBits(r.getAs[Double](c)))
    }
    assert(adjusted(pairs) == adjusted(pairs.reverse))
  }

  test("BY correction across the relation can drown a weak effect") {
    // One weakly positive spec among many null specs: raw p ~ 0.03 would be
    // P alone, but BY over 3 * 40 p-values pushes it above alpha.
    val rng = new scala.util.Random(2)
    val weak = (0 until 6).map(s => m(dataset = "WEAK", split = s,
      testB = 0.700, testD = 0.704 + 0.004 * rng.nextGaussian()))
    val nulls = (1 to 39).flatMap(i => (0 until 6).map(s =>
      m(dataset = s"NULL$i", split = s,
        testB = 0.7 + 0.03 * rng.nextGaussian(), testD = 0.7 + 0.03 * rng.nextGaussian())))
    val r1 = Relations.r1((weak ++ nulls).toDF())
    val weakRow = r1.filter($"dataset" === "WEAK").head()
    val rawSignificant = weakRow.getAs[Double]("p0") < 0.05
    val corrected = weakRow.getAs[Double]("p0_adj")
    if (rawSignificant) assert(corrected > weakRow.getAs[Double]("p0"))
  }

  test("flag columns carry the t-test and correction evidence") {
    val meas = (0 until 8).map(s => m(split = s, testB = 0.6, testD = 0.7 + 0.001 * s)).toDF()
    val cols = Relations.r1(meas).columns.toSet
    assert(Set("mean_diff", "p0", "p1", "p2", "p0_adj", "p1_adj", "p2_adj",
      "flag", "n_splits").subsetOf(cols))
    assert(Relations.R1Keys.toSet.subsetOf(cols))
  }

  test("r2/r3 relations drop the selected-away key attributes") {
    val meas = (0 until 4).map(s => m(split = s)).toDF()
    assert(!Relations.r2(meas).columns.contains("model"))
    val r3cols = Relations.r3(meas).columns
    assert(!r3cols.contains("detect") && !r3cols.contains("repair"))
  }
}
