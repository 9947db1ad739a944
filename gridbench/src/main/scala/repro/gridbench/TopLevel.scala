package repro.gridbench

import org.apache.spark.sql.{DataFrame, Row, SparkSession}

import repro.core.{ErrorType, Queries, Relations, RunConfig, Runner}
import repro.data.BenchDataset

/** The four top-level calls the benchmark makes into the program, each
  * timed directly by the caller. Only stable public entry points are used.
  * Jobs these methods issue themselves (e.g. collecting query results) are
  * attributed through their names in [[Layers.Table]].
  */
object TopLevel {

  /** Dataset generation: every (dataset, error, variant) cell, materialized. */
  def generate(spark: SparkSession, cells: Seq[(BenchDataset, ErrorType, String)]): Long =
    cells.map { case (ds, e, v) => ds.dirty(spark, e, v).count() }.sum

  /** The measurement grid plus R1/R2/R3. */
  def runGrid(spark: SparkSession, cfg: RunConfig, errors: Set[ErrorType],
              datasets: Seq[BenchDataset]): Runner.BenchmarkRelations =
    Runner.run(spark, cfg, errors, datasets)

  /** R1/R2/R3 over a measurement table stored as Parquet. */
  def relations(spark: SparkSession, table: String, alpha: Double): Seq[(String, DataFrame)] = {
    val meas = spark.read.parquet(table)
    Seq("R1" -> Relations.r1(meas, alpha), "R2" -> Relations.r2(meas, alpha),
        "R3" -> Relations.r3(meas, alpha))
  }

  /** Q1–Q5 for every error type and relation, with Q3 on R1 only and Q4 on
    * R1/R2 of the multi-method error types, as in the paper's Table 15.
    * Returns each query's collected rows, keyed by query, relation and error.
    */
  def queries(rels: Seq[(String, DataFrame)], errors: Seq[ErrorType]): Seq[(String, Seq[Row])] =
    for {
      (rName, rel) <- rels
      e <- errors
      multiMethod = e == ErrorType.Outliers || e == ErrorType.MissingValues
      (q, sql) <- Seq(
        Some("Q1" -> Queries.q1Sql _),
        Option.when(e != ErrorType.MissingValues)("Q2" -> Queries.q2Sql _),
        Option.when(rName == "R1")("Q3" -> Queries.q3Sql _),
        Option.when(multiMethod && rName != "R3")("Q4.1" -> Queries.q41Sql _),
        Option.when(multiMethod && rName != "R3")("Q4.2" -> Queries.q42Sql _),
        Some("Q5" -> Queries.q5Sql _)).flatten
    } yield {
      val view = s"rel_$rName"
      s"$q/$rName/${e.name}" -> Queries.run(rel, sql(view, e.name), view).collect().toSeq
    }
}
