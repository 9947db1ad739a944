package repro.core

import scala.jdk.CollectionConverters._

import org.apache.spark.sql.{DataFrame, Encoders, Row, SparkSession}
import org.apache.spark.sql.functions.col
import org.apache.spark.sql.types._

import repro.stats.{FDR, TTest}

/** Builds the CleanML relations R1/R2/R3 (paper §2.1) from the raw
  * measurement grid.
  *
  *   - R1: per specification, metrics averaged over search seeds (§4.2.1)
  *   - R2: model selection — per side, the (model, seed) with the best
  *     validation score provides the test metric (§2.1, Tables 8/11)
  *   - R3: cleaning-method selection on top of R2 — the method whose
  *     clean-side best validation score is highest (§2.1, Table 9)
  *
  * Flags come from paired two-/upper-/lower-tailed t-tests over the
  * per-split metric pairs, with Benjamini–Yekutieli correction applied
  * jointly to all 3·|R| p-values of a relation (§4.2.2–4.3).
  *
  * Everything is computed on the driver over the measurement rows: even the
  * paper protocol's grid is about 133,000 rows. The DataFrame entry points
  * collect their input once and return single-partition local frames, so a
  * Table 15 query over a relation plans no shuffle and runs as one job.
  */
object Relations {

  val R1Keys: Seq[String] = Seq("dataset", "error_type", "detect", "repair", "model", "scenario")
  val R2Keys: Seq[String] = Seq("dataset", "error_type", "detect", "repair", "scenario")
  val R3Keys: Seq[String] = Seq("dataset", "error_type", "scenario")

  /** One spec's metric pair at one split. `key` holds the spec's values of
    * the relation's keys, in order. `bestVal` is the clean-side validation
    * score that won an R2 pair's model selection (R3 selects methods on it);
    * it is NaN in R1 and R3 pairs.
    */
  private final case class Pair(key: Vector[String], split: Int, b: Double, d: Double,
                        bestVal: Double = Double.NaN)

  /** Spark SQL's descending order of doubles: NaN first, and -0.0 equal to 0.0. */
  private val Descending: Ordering[Double] =
    (x, y) => if (x == y) 0 else java.lang.Double.compare(y, x)

  private val R3Index = R3Keys.map(R2Keys.indexOf)
  private val MethodIndex = Seq("detect", "repair").map(R2Keys.indexOf)

  /** R1 metric pairs: one (b, d) pair per spec and split, each side the mean
    * over search seeds. The mean adds the seeds' metrics in seed order,
    * starting from 0.0, and divides by their count, so it does not depend
    * on the order or partitioning the rows arrive in.
    */
  private def r1Pairs(meas: Seq[Measurement]): Seq[Pair] =
    meas.groupBy(m => (Vector(m.dataset, m.error_type, m.detect, m.repair, m.model, m.scenario),
                       m.split)).toSeq.map { case ((key, split), ms) =>
      val bySeed = ms.sortBy(_.seed)
      Pair(key, split, bySeed.foldLeft(0.0)(_ + _.test_b) / ms.size,
        bySeed.foldLeft(0.0)(_ + _.test_d) / ms.size)
    }

  /** R2 metric pairs: per spec-without-model and split, each side takes the
    * test metric of the (model, seed) with the best validation score
    * (ties break by model then seed for determinism). `bestVal` carries
    * the clean-side winning validation score for R3's method selection.
    */
  private def r2Pairs(meas: Seq[Measurement]): Seq[Pair] = {
    def best(ms: Seq[Measurement], v: Measurement => Double): Measurement =
      ms.min(Ordering.by((m: Measurement) => (v(m), m.model, m.seed))(
        Ordering.Tuple3(Descending, Ordering.String, Ordering.Int)))
    meas.groupBy(m => (Vector(m.dataset, m.error_type, m.detect, m.repair, m.scenario), m.split))
      .toSeq.map { case ((key, split), ms) =>
        val (b, d) = (best(ms, _.val_b), best(ms, _.val_d))
        Pair(key, split, b.test_b, d.test_d, d.val_d)
      }
  }

  /** R3 metric pairs: per (dataset, error, scenario, split), the method
    * with the best clean-side validation score provides the pair (ties
    * break by detect then repair).
    */
  private def r3Pairs(r2: Seq[Pair]): Seq[Pair] =
    r2.groupBy(p => (R3Index.map(p.key).toVector, p.split)).toSeq.map { case ((key, split), ps) =>
      val w = ps.min(Ordering.by((p: Pair) => (p.bestVal, p.key(MethodIndex(0)), p.key(MethodIndex(1))))(
        Ordering.Tuple3(Descending, Ordering.String, Ordering.String)))
      Pair(key, split, w.b, w.d)
    }

  /** The paper's flag rule over adjusted two-, upper- and lower-tailed
    * p-values: P if a0 < alpha and a1 < alpha; N if a0 < alpha and
    * a2 < alpha; S otherwise (strict: a p-value equal to alpha is not
    * significant).
    */
  def flagOf(a0: Double, a1: Double, a2: Double, alpha: Double): String =
    if (a0 < alpha && a1 < alpha) Flag.Positive
    else if (a0 < alpha && a2 < alpha) Flag.Negative
    else Flag.Insignificant

  /** Group pairs by spec, run the three paired t-tests per spec over its
    * pairs in split order, apply BY over all p-values of the relation, and
    * emit one row per spec: its key values, mean_diff, p0..p2,
    * p0_adj..p2_adj, its [[flagOf]] and n_splits.
    */
  private def flags(pairs: Seq[Pair], alpha: Double): Seq[Row] = {
    val stats = pairs.groupBy(_.key).toSeq.map { case (key, ps) =>
      (key, TTest.paired(ps.sortBy(_.split).map(p => (p.b, p.d))))
    }
    val adjP = FDR.benjaminiYekutieli(stats.flatMap { case (_, t) => Seq(t.p0, t.p1, t.p2) })
    stats.zipWithIndex.map { case ((key, t), i) =>
      val (a0, a1, a2) = (adjP(3 * i), adjP(3 * i + 1), adjP(3 * i + 2))
      Row.fromSeq(key ++ Seq(t.meanDiff, t.p0, t.p1, t.p2, a0, a1, a2,
        flagOf(a0, a1, a2, alpha), t.n))
    }
  }

  /** R1, R2 and R3 over measurement rows held on the driver; R3 selects
    * over R2's pairs.
    */
  def all(spark: SparkSession, meas: Seq[Measurement], alpha: Double): (DataFrame, DataFrame, DataFrame) = {
    val r2 = r2Pairs(meas)
    (flagFrame(spark, R1Keys, r1Pairs(meas), alpha), flagFrame(spark, R2Keys, r2, alpha),
      flagFrame(spark, R3Keys, r3Pairs(r2), alpha))
  }

  // The DataFrame entry points: each collects its input once and delegates.

  def r1Pairs(meas: DataFrame): DataFrame =
    pairFrame(meas.sparkSession, R1Keys, r1Pairs(rowsOf(meas)), bestVal = false)
  def r2Pairs(meas: DataFrame): DataFrame =
    pairFrame(meas.sparkSession, R2Keys, r2Pairs(rowsOf(meas)), bestVal = true)
  def r3Pairs(r2: DataFrame): DataFrame =
    pairFrame(r2.sparkSession, R3Keys, r3Pairs(pairsOf(r2, R2Keys, bestVal = true)), bestVal = false)
  def flags(pairs: DataFrame, keys: Seq[String], alpha: Double): DataFrame =
    flagFrame(pairs.sparkSession, keys, pairsOf(pairs, keys, bestVal = false), alpha)

  def r1(meas: DataFrame, alpha: Double = 0.05): DataFrame =
    flagFrame(meas.sparkSession, R1Keys, r1Pairs(rowsOf(meas)), alpha)
  def r2(meas: DataFrame, alpha: Double = 0.05): DataFrame =
    flagFrame(meas.sparkSession, R2Keys, r2Pairs(rowsOf(meas)), alpha)
  def r3(meas: DataFrame, alpha: Double = 0.05): DataFrame =
    flagFrame(meas.sparkSession, R3Keys, r3Pairs(r2Pairs(rowsOf(meas))), alpha)

  private def rowsOf(meas: DataFrame): Seq[Measurement] =
    meas.as(Encoders.product[Measurement]).collect().toSeq

  /** The pairs of a pair frame: its `keys`, split, b, d and, for R2 pairs, best_val. */
  private def pairsOf(pairs: DataFrame, keys: Seq[String], bestVal: Boolean): Seq[Pair] = {
    val n = keys.size
    val cols = keys ++ Seq("split", "b", "d") ++ Option.when(bestVal)("best_val")
    pairs.select(cols.map(col): _*).collect().toSeq.map { r =>
      Pair((0 until n).map(r.getString).toVector, r.getInt(n), r.getDouble(n + 1), r.getDouble(n + 2),
        if (bestVal) r.getDouble(n + 3) else Double.NaN)
    }
  }

  private def frame(spark: SparkSession, schema: StructType, rows: Seq[Row]): DataFrame =
    spark.createDataFrame(rows.asJava, schema).coalesce(1)

  private def keyFields(keys: Seq[String]): Seq[StructField] =
    keys.map(StructField(_, StringType, nullable = false))

  private def pairFrame(spark: SparkSession, keys: Seq[String], pairs: Seq[Pair],
                        bestVal: Boolean): DataFrame =
    frame(spark,
      StructType(keyFields(keys) ++ Seq(StructField("split", IntegerType, nullable = false)) ++
        (Seq("b", "d") ++ Option.when(bestVal)("best_val")).map(StructField(_, DoubleType, nullable = false))),
      pairs.map(p => Row.fromSeq(p.key ++ Seq[Any](p.split, p.b, p.d) ++ Option.when(bestVal)(p.bestVal))))

  private def flagFrame(spark: SparkSession, keys: Seq[String], pairs: Seq[Pair],
                        alpha: Double): DataFrame =
    frame(spark,
      StructType(keyFields(keys) ++
        Seq("mean_diff", "p0", "p1", "p2", "p0_adj", "p1_adj", "p2_adj")
          .map(StructField(_, DoubleType, nullable = false)) ++
        Seq(StructField("flag", StringType, nullable = false),
            StructField("n_splits", IntegerType, nullable = false))),
      flags(pairs, alpha))
}
