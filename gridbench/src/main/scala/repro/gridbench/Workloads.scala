package repro.gridbench

import java.io.File
import java.util.SplittableRandom

import scala.collection.mutable

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions._

import repro.core.{ErrorType, Measurement, RunConfig, Specs}
import repro.data.{BenchDataset, Datasets}

/** What one timed pass produced, kept until it has been checked. */
final case class PassOutput(measurements: Option[DataFrame],
                            relations: Seq[(String, DataFrame)],
                            queries: Seq[(String, Seq[Row])]) {
  def release(): Unit = measurements.foreach(_.unpersist(blocking = true))
}

/** One benchmark workload: its inputs, one timed pass over them, and the
  * check of that pass's outputs. Timed top-level calls are added to `calls`
  * (seconds, keyed by layer).
  */
sealed trait Workload {
  def name: String
  def config(nproc: Int): RunConfig
  def shufflePartitions(nproc: Int): Int
  /** Generate the inputs (timed by the caller as the `data` call). */
  def setup(spark: SparkSession, seed: Long, dir: File): Unit
  def pass(spark: SparkSession, nproc: Int, calls: mutable.Map[String, Double]): PassOutput
  def check(spark: SparkSession, nproc: Int, out: PassOutput): Check.Result
}

object Workloads {

  def timed[A](calls: mutable.Map[String, Double], layer: String)(body: => A): A = {
    val t0 = System.nanoTime()
    try body finally calls(layer) = calls.getOrElse(layer, 0.0) + (System.nanoTime() - t0) / 1e9
  }

  /** A slice of the measurement grid at split 0, run through `Runner.run`
    * with up to `nproc` cells in flight, followed by the Table 15 queries.
    */
  final case class Grid(name: String, errors: Set[ErrorType], datasets: Seq[BenchDataset],
                        models: Seq[String], methods: Set[(String, String)])
      extends Workload {
    def config(nproc: Int): RunConfig =
      RunConfig(splits = 1, seeds = 1, searchK = 1, parallelism = nproc,
        models = models, methodFilter = Some(methods))
    // Runner.measurements sets 2 itself; pinning the same value up front
    // keeps the session's settings constant for the whole run.
    def shufflePartitions(nproc: Int): Int = 2
    private def cells = Specs.cells(errors, datasets)
    private def errorList = ErrorType.all.filter(errors.contains)

    /** The dataset generator ignores the workload seed: Runner always asks
      * for dataset seed 0, so the grid's inputs are fixed.
      */
    def setup(spark: SparkSession, seed: Long, dir: File): Unit = TopLevel.generate(spark, cells)

    def pass(spark: SparkSession, nproc: Int, calls: mutable.Map[String, Double]): PassOutput = {
      val rel = timed(calls, "core.runner")(TopLevel.runGrid(spark, config(nproc), errors, datasets))
      val rels = Seq("R1" -> rel.r1, "R2" -> rel.r2, "R3" -> rel.r3)
      val qs = timed(calls, "core.queries")(TopLevel.queries(rels, errorList))
      PassOutput(Some(rel.measurements), rels, qs)
    }

    def check(spark: SparkSession, nproc: Int, out: PassOutput): Check.Result = {
      val cfg = config(nproc)
      def kept(detect: String, repair: String) = methods.contains((detect, repair))
      val r1 = Specs.r1(models, errors, datasets).filter(s => kept(s.detect, s.repair))
      val r2 = Specs.r2(errors, datasets).filter(s => kept(s.detect, s.repair))
      val r3 = r2.map(s => (s.dataset, s.error, s.scenario)).distinct
      val meas = out.measurements.get.collect().toSeq
      Check.grid(meas, r1.size * cfg.splits * cfg.seeds, out.relations,
        Map("R1" -> r1.size, "R2" -> r2.size, "R3" -> r3.size), cfg.splits, out.queries)
    }
  }

  /** Relations and queries over a stored measurement table of the paper's
    * full protocol (see [[PaperTable]]).
    */
  object AnalyzePaper extends Workload {
    import PaperTable.{Seeds, Splits}
    val name = "analyze-paper"
    def config(nproc: Int): RunConfig = RunConfig(splits = Splits, seeds = Seeds, parallelism = nproc)
    def shufflePartitions(nproc: Int): Int = nproc

    private var table: String = _
    private var planted: Map[Specs.R1Spec, String] = Map.empty

    def setup(spark: SparkSession, seed: Long, dir: File): Unit = {
      planted = PaperTable.plant(seed)
      table = new File(dir, "measurements.parquet").getPath
      val specs = Specs.r1().zipWithIndex.map { case (s, i) => (s, i, planted(s)) }
      import spark.implicits._
      // Generated on the executors, one slice of specs per partition.
      spark.sparkContext.parallelize(specs, spark.conf.get("spark.sql.shuffle.partitions").toInt)
        .flatMap { case (s, i, flag) => PaperTable.rows(seed, s, i, flag) }
        .toDS().write.mode("overwrite").parquet(table)
    }

    def pass(spark: SparkSession, nproc: Int, calls: mutable.Map[String, Double]): PassOutput = {
      val rels = timed(calls, "core.relations")(
        TopLevel.relations(spark, table, config(nproc).alpha))
      val qs = timed(calls, "core.queries")(TopLevel.queries(rels, ErrorType.all))
      PassOutput(None, rels, qs)
    }

    def check(spark: SparkSession, nproc: Int, out: PassOutput): Check.Result = {
      val outOfRange = Seq("val_b", "test_b", "val_d", "test_d")
        .map(c => isnan(col(c)) || col(c) < 0 || col(c) > 1).reduce(_ || _)
      val counts = spark.read.parquet(table)
        .agg(count(lit(1)), sum(when(outOfRange, 1L).otherwise(0L))).head()
      Check.analyze(counts.getLong(0), Specs.r1().size * Splits * Seeds, counts.getLong(1), out.relations,
        Map("R1" -> Specs.r1().size, "R2" -> Specs.r2().size, "R3" -> Specs.r3().size),
        Splits, out.queries, planted)
    }
  }

  /** `cell-fit`'s models: AdaBoost (its own boosting loop over weighted
    * MLlib trees), one MLlib predictor (logistic regression stands for the
    * tree models, which share its fit and predict path) and both local
    * predictors. Decision tree, random forest and GBT are left out to keep
    * a run within the benchmark's time budget.
    */
  val CellFitModels: Seq[String] = Seq("adaboost", "knn", "logistic_regression", "naive_bayes")

  def byName(name: String): Option[Workload] = name match {
    case "cell-fit" =>
      Some(Grid("cell-fit", Set(ErrorType.Outliers), Seq(Datasets.byName("Sensor")),
        CellFitModels, Set(("SD", "impute_mean"))))
    case "analyze-paper" => Some(AnalyzePaper)
    case _ => None
  }
}

/** The measurement table of the paper's full protocol: every R1 spec × 20
  * splits × 5 search seeds, with seeded metrics. About 15% of the specs
  * carry a planted positive cleaning effect and 15% a negative one, large
  * enough against the noise that R1 must flag them P and N.
  */
object PaperTable {
  val Splits = 20
  val Seeds = 5
  val Effect = 0.08

  /** Planted flag of each R1 spec. */
  def plant(seed: Long): Map[Specs.R1Spec, String] =
    Specs.r1().zipWithIndex.map { case (s, i) =>
      val u = new SplittableRandom(seed * 1000003L + i).nextDouble()
      s -> (if (u < 0.15) "P" else if (u < 0.30) "N" else "S")
    }.toMap

  /** The measurement rows of spec number `i`, whose planted flag is `flag`. */
  def rows(seed: Long, s: Specs.R1Spec, i: Int, flag: String): Seq[Measurement] = {
    val effect = flag match { case "P" => Effect; case "N" => -Effect; case _ => 0.0 }
    val base = 0.55 + 0.3 * new SplittableRandom(seed * 7919L + i).nextDouble()
    (0 until Splits).flatMap { split =>
      val rng = new SplittableRandom((seed * 1000003L + i) * 31L + split)
      val sb = base + 0.03 * gauss(rng)
      (0 until Seeds).map { k =>
        val testB = clamp(sb + 0.01 * gauss(rng))
        val testD = clamp(sb + effect + 0.02 * gauss(rng))
        Measurement(s.dataset, s.error, s.detect, s.repair, s.scenario, s.model, split, k,
          clamp(testB + 0.01 * gauss(rng)), testB, clamp(testD + 0.01 * gauss(rng)), testD)
      }
    }
  }

  private def clamp(x: Double) = math.min(1.0, math.max(0.0, x))

  /** Box–Muller: SplittableRandom has no nextGaussian on JDK 17. */
  private def gauss(rng: SplittableRandom): Double = {
    val u1 = 1.0 - rng.nextDouble()
    math.sqrt(-2.0 * math.log(u1)) * math.cos(2 * math.Pi * rng.nextDouble())
  }
}
