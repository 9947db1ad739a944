package repro.ml

import org.apache.spark.ml.linalg.Vector

/** From-scratch k-nearest-neighbors classifier (paper §3.3; MLlib has no
  * KNN). "Training" keeps the collected (features, label) pairs;
  * prediction is an exact Euclidean majority vote on the driver. Suited to
  * the benchmark's small per-dataset scale.
  */
object KNN {

  /** Fit on a collected featurized training set; returns a predictor over
    * feature vectors. Ties break toward the smaller label for determinism.
    */
  def fit(train: Examples, k: Int): Vector => Double = {
    val data: Array[(Array[Double], Double)] = train.features.map(_.toArray).zip(train.label)
    require(data.nonEmpty, "KNN: empty training set")
    val kEff = math.min(k, data.length)

    v => {
      val x = v.toArray
      val neighbors = data
        .map { case (t, l) =>
          var s = 0.0
          var i = 0
          val n = math.min(x.length, t.length)
          while (i < n) { val d = x(i) - t(i); s += d * d; i += 1 }
          (s, l)
        }
        .sortBy(_._1)
        .take(kEff)
      val votes = neighbors.groupBy(_._2).view.mapValues(_.size).toMap
      votes.toSeq.maxBy { case (l, n) => (n, -l) }._1
    }
  }
}
