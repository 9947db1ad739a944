package repro.ml

import scala.collection.mutable.ArrayBuffer

import org.apache.spark.ml.classification.{DecisionTreeClassificationModel, DecisionTreeClassifier}
import org.apache.spark.ml.linalg.Vector
import org.apache.spark.sql.functions._

/** From-scratch binary AdaBoost (discrete SAMME; paper §3.3 — MLlib has no
  * AdaBoost). Base learners are weighted MLlib decision trees fit on the
  * training frame; the sample weights live in a driver-side array, and
  * error, reweighting and prediction use the trees' local `predict`.
  *
  * The weights are bit-identical to computing them as Spark columns: `exp`
  * is `StrictMath.exp` (as Spark's), and every sum adds sequentially within
  * a partition and then merges partitions in index order (as Spark's
  * `sum`), so each tree fit sees the weights a DataFrame loop would give it.
  */
object AdaBoost {

  /** Fit on a featurized training set; returns a predictor over feature
    * vectors.
    */
  def fit(train: TrainSet, rounds: Int, baseDepth: Int, seed: Long): Vector => Double = {
    val rows = train.rows
    val n = rows.label.length
    require(n > 0, "AdaBoost: empty training set")
    require(rows.rid.distinct.length == n, "AdaBoost: row ids must be unique")
    var w = Array.fill(n)(1.0 / n.toDouble)
    val trees = ArrayBuffer.empty[(DecisionTreeClassificationModel, Double)]

    var t = 0
    var stop = false
    while (t < rounds && !stop) {
      val byRid = rows.rid.zip(w).toMap
      val weightOf = udf((rid: Long) => byRid(rid))
      val dt = new DecisionTreeClassifier()
        .setFeaturesCol(Features.FeaturesCol).setLabelCol("label")
        .setWeightCol("__w").setMaxDepth(baseDepth).setSeed(seed + t)
      val model = dt.fit(train.frame.withColumn("__w", weightOf(col("rid"))))
      val wrong = Array.tabulate(n)(i => model.predict(rows.features(i)) != rows.label(i))
      val err = sparkSum(rows.partition, Array.tabulate(n)(i => if (wrong(i)) w(i) else 0.0)) /
        sparkSum(rows.partition, w)
      if (err <= 1e-10) {
        // Perfect base learner: take it with a large vote and stop.
        trees += ((model, 5.0)); stop = true
      } else if (err >= 0.5) {
        // No better than chance under current weights; keep earlier rounds
        // (or this one alone with a tiny vote if it is the first).
        if (trees.isEmpty) trees += ((model, 1e-3))
        stop = true
      } else {
        val alpha = 0.5 * math.log((1.0 - err) / err)
        trees += ((model, alpha))
        val unnorm = Array.tabulate(n)(i => w(i) * StrictMath.exp(if (wrong(i)) alpha else -alpha))
        val total = sparkSum(rows.partition, unnorm)
        w = unnorm.map(_ / total)
      }
      t += 1
    }
    val fitted = trees.toSeq

    v => {
      var score = 0.0
      fitted.foreach { case (m, a) => score = score + a * (m.predict(v) * 2.0 - 1.0) }
      if (score > 0) 1.0 else 0.0
    }
  }

  /** Sum `xs` the way Spark's `sum` aggregate does over a frame whose rows
    * came from `partition` (contiguous, in index order): sequentially within
    * each partition, then the partition sums in order.
    */
  private def sparkSum(partition: Array[Int], xs: Array[Double]): Double = {
    var total = 0.0
    var i = 0
    while (i < xs.length) {
      val p = partition(i)
      var part = 0.0
      while (i < xs.length && partition(i) == p) { part += xs(i); i += 1 }
      total += part
    }
    total
  }
}
