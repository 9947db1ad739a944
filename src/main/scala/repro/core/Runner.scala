package repro.core

import java.util.concurrent.Executors

import scala.concurrent.{Await, ExecutionContext, Future}
import scala.concurrent.duration.Duration

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.data.{BenchDataset, Datasets}

/** Orchestrates the benchmark: runs the measurement grid (driver-parallel
  * over (dataset, error, variant, split) cells, each cell a sequence of
  * Spark jobs), derives the R1/R2/R3 relations, and prints the Table-15
  * analysis blocks.
  */
object Runner {

  final case class BenchmarkRelations(measurements: DataFrame, r1: DataFrame,
                                      r2: DataFrame, r3: DataFrame)

  /** Run the measurement grid for the given error types/datasets. A failing
    * cell fails the run with an exception that names the cell and keeps the
    * cause.
    */
  def measurements(spark: SparkSession, cfg: RunConfig,
                   errors: Set[ErrorType],
                   datasets: Seq[BenchDataset] = Datasets.all): DataFrame = {
    import spark.implicits._
    grid(spark, cfg, errors, datasets).toDF()
  }

  /** The measurement rows of every cell, collected on the driver. */
  private def grid(spark: SparkSession, cfg: RunConfig, errors: Set[ErrorType],
                   datasets: Seq[BenchDataset]): Seq[Measurement] = {
    val cells = Specs.cells(errors, datasets)
    val fulls = cells.map { case (ds, e, v) =>
      val df = ds.dirty(spark, e, v).cache()
      df.count()
      ((ds, e, v), df)
    }
    val pool = Executors.newFixedThreadPool(math.max(1, cfg.parallelism))
    implicit val ec: ExecutionContext = ExecutionContext.fromExecutor(pool)
    try {
      val futures =
        for (((ds, e, v), full) <- fulls; split <- 0 until cfg.splits)
          yield Future(Experiment.runCell(ds, e, v, full, split, cfg)).transform(identity, t =>
            new RuntimeException(
              s"cell (dataset=${ds.spec.name}, error=${e.name}, variant=$v, split=$split) failed: $t", t))
      Await.result(Future.sequence(futures), Duration.Inf).flatten
    } finally {
      pool.shutdown()
      fulls.foreach(_._2.unpersist(blocking = false))
    }
  }

  /** Full pipeline: measurements -> flagged relations, derived on the
    * driver from the rows the cells returned.
    */
  def run(spark: SparkSession, cfg: RunConfig, errors: Set[ErrorType],
          datasets: Seq[BenchDataset] = Datasets.all): BenchmarkRelations = {
    val rows = grid(spark, cfg, errors, datasets)
    val (r1, r2, r3) = Relations.all(spark, rows, cfg.alpha)
    import spark.implicits._
    BenchmarkRelations(rows.toDF(), r1, r2, r3)
  }

  /** Print the Table 15 blocks ([[Queries.table15]]) for one error type,
    * with the paper's numbers alongside where recovered (PaperNumbers).
    */
  def printTable15(rel: BenchmarkRelations, error: ErrorType): Unit = {
    val e = error.name
    println(s"\n===== Table 15 blocks for error type: $e =====")
    PaperNumbers.notes.getOrElse(e, Nil).foreach(n => println(s"  [paper] $n"))
    for ((rName, relation) <- Seq(("R1", rel.r1), ("R2", rel.r2), ("R3", rel.r3));
         (q, sql) <- Queries.table15(rName, error)) {
      val view = s"rel_$rName"
      val paper: Seq[String] => Option[Map[String, Int]] = q match {
        case "Q1" => _ => PaperNumbers.q1.get((rName, e))
        case "Q2" => k => PaperNumbers.q2.get((rName, e, k.headOption.getOrElse("")))
        case "Q3" => k => PaperNumbers.q3.get((rName, e, k.headOption.getOrElse("")))
        case _    => _ => None
      }
      TableFormat.printBlock(s"$q [$rName, $e]",
        TableFormat.collect(Queries.run(relation, sql(view, e), view)), paper)
    }
  }
}
