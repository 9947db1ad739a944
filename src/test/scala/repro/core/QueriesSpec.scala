package repro.core

import org.apache.spark.sql.DataFrame

import repro.{Oracle, SparkSpec}
import repro.core.ErrorType._

class QueriesSpec extends SparkSpec {

  import spark.implicits._

  /** A small synthetic R1 relation with known flag distributions. */
  private lazy val relation: DataFrame = {
    val rng = new scala.util.Random(4)
    val rows = for {
      ds <- Seq("EEG", "Sensor", "Credit")
      detect <- Seq("SD", "IQR", "IF")
      repair <- Seq("delete", "impute_mean")
      model <- Seq("knn", "xgboost")
      scen <- Seq("BD", "CD")
    } yield {
      val flag = if (ds == "Credit" && detect != "SD") "N"
                 else if (ds == "EEG") "P" else Seq("P", "S")(rng.nextInt(2))
      (ds, "outliers", detect, repair, model, scen, flag)
    }
    rows.toDF("dataset", "error_type", "detect", "repair", "model", "scenario", "flag")
      .cache()
  }

  test("Q1 matches DuckDB (oracle-checked)") {
    val got = Queries.run(relation, Queries.q1Sql("r", "outliers"), "r")
    Oracle.assertEquivalent(got,
      "SELECT flag, COUNT(*) AS cnt FROM r WHERE error_type = 'outliers' GROUP BY flag",
      "r" -> relation)
  }

  test("Q2 matches DuckDB (oracle-checked)") {
    val got = Queries.run(relation, Queries.q2Sql("r", "outliers"), "r")
    Oracle.assertEquivalent(got,
      "SELECT scenario, flag, COUNT(*) AS cnt FROM r WHERE error_type = 'outliers' GROUP BY scenario, flag",
      "r" -> relation)
  }

  test("Q3 matches DuckDB (oracle-checked)") {
    val got = Queries.run(relation, Queries.q3Sql("r", "outliers"), "r")
    Oracle.assertEquivalent(got,
      "SELECT model, flag, COUNT(*) AS cnt FROM r WHERE error_type = 'outliers' GROUP BY model, flag",
      "r" -> relation)
  }

  test("Q4.1 and Q4.2 match DuckDB (oracle-checked)") {
    val got1 = Queries.run(relation, Queries.q41Sql("r", "outliers"), "r")
    Oracle.assertEquivalent(got1,
      "SELECT detect AS detect_method, flag, COUNT(*) AS cnt FROM r WHERE error_type = 'outliers' GROUP BY detect, flag",
      "r" -> relation)
    val got2 = Queries.run(relation, Queries.q42Sql("r", "outliers"), "r")
    Oracle.assertEquivalent(got2,
      "SELECT repair AS repair_method, flag, COUNT(*) AS cnt FROM r WHERE error_type = 'outliers' GROUP BY repair, flag",
      "r" -> relation)
  }

  test("Q5 matches DuckDB (oracle-checked)") {
    val got = Queries.run(relation, Queries.q5Sql("r", "outliers"), "r")
    Oracle.assertEquivalent(got,
      "SELECT dataset, flag, COUNT(*) AS cnt FROM r WHERE error_type = 'outliers' GROUP BY dataset, flag",
      "r" -> relation)
  }

  test("table15 plans the paper's blocks per relation and error type") {
    val q4 = Seq("Q4.1", "Q4.2")
    val cases = Seq(
      // (relation, error,        blocks)
      ("R1", MissingValues,   Seq("Q1", "Q3") ++ q4 :+ "Q5"),
      ("R1", Outliers,        Seq("Q1", "Q2", "Q3") ++ q4 :+ "Q5"),
      ("R1", Duplicates,      Seq("Q1", "Q2", "Q3", "Q5")),
      ("R1", Inconsistencies, Seq("Q1", "Q2", "Q3", "Q5")),
      ("R1", Mislabels,       Seq("Q1", "Q2", "Q3", "Q5")),
      ("R2", MissingValues,   "Q1" +: q4 :+ "Q5"),
      ("R2", Outliers,        Seq("Q1", "Q2") ++ q4 :+ "Q5"),
      ("R2", Duplicates,      Seq("Q1", "Q2", "Q5")),
      ("R2", Inconsistencies, Seq("Q1", "Q2", "Q5")),
      ("R2", Mislabels,       Seq("Q1", "Q2", "Q5")),
      ("R3", MissingValues,   Seq("Q1", "Q5")),
      ("R3", Outliers,        Seq("Q1", "Q2", "Q5")),
      ("R3", Duplicates,      Seq("Q1", "Q2", "Q5")),
      ("R3", Inconsistencies, Seq("Q1", "Q2", "Q5")),
      ("R3", Mislabels,       Seq("Q1", "Q2", "Q5")))
    assert(cases.map(c => (c._1, c._2)).toSet.size == 15)
    val builders = Map[String, (String, String) => String]("Q1" -> Queries.q1Sql, "Q2" -> Queries.q2Sql,
      "Q3" -> Queries.q3Sql, "Q4.1" -> Queries.q41Sql, "Q4.2" -> Queries.q42Sql, "Q5" -> Queries.q5Sql)
    cases.foreach { case (r, e, blocks) =>
      val plan = Queries.table15(r, e)
      assert(plan.map(_._1) == blocks, s"$r × ${e.name}")
      plan.foreach { case (q, sql) => assert(sql("v", e.name) == builders(q)("v", e.name)) }
    }
    val plan = for ((r, e, _) <- cases; (q, _) <- Queries.table15(r, e)) yield (r, e, q)
    // The 55 queries the grid benchmark issues over R1–R3 × five error types.
    assert(plan.size == 55)
    assert(!plan.exists { case (_, e, q) => e == MissingValues && q == "Q2" })
    assert(plan.collect { case (r, _, "Q3") => r }.toSet == Set("R1"))
    assert(plan.collect { case (r, e, "Q4.1" | "Q4.2") => (r, e) }.toSet ==
      (for (r <- Set("R1", "R2"); e <- Set[ErrorType](Outliers, MissingValues)) yield (r, e)))
  }

  test("a Table 15 query over an R1 frame runs as one Spark job") {
    // The relation is one local partition, so the GROUP BY plans no shuffle.
    val meas = (for { ds <- Seq("EEG", "Sensor"); model <- Seq("knn", "xgboost"); split <- 0 to 3 }
      yield Measurement(ds, "outliers", "SD", "delete", "BD", model, split, 0,
        0.5, 0.6, 0.5, 0.6 + 0.01 * split)).toDF()
    val r1 = Relations.r1(meas)
    assert(jobsOf(Queries.run(r1, Queries.q3Sql("r1", "outliers"), "r1").collect()) == 1)
  }

  test("queries filter by error type") {
    val out = Queries.run(relation, Queries.q1Sql("r", "duplicates"), "r")
    assert(out.count() == 0)
  }

  test("TableFormat collects grouped query output") {
    val got = Queries.run(relation, Queries.q5Sql("r", "outliers"), "r")
    val m = TableFormat.collect(got)
    assert(m.keySet.map(_.head) == Set("EEG", "Sensor", "Credit"))
    assert(m(Seq("EEG")).values.sum == 24) // 3 detect × 2 repair × 2 model × 2 scen
    assert(m(Seq("EEG")) == Map("P" -> 24L))
  }

  test("TableFormat.dist renders percentages and counts") {
    val s = TableFormat.dist(Map("P" -> 3L, "S" -> 1L))
    assert(s.contains("P  75.0% (3)"))
    assert(s.contains("N   0.0% (0)"))
  }
}
