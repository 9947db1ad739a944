package repro.ml

import org.apache.spark.sql.DataFrame

/** Evaluation metrics (paper §4.1 step 4): accuracy for balanced datasets,
  * F1 of the minority (positive) class for class-imbalanced ones.
  */
object Evaluate {

  /** Compute `metric` ("acc" | "f1") over paired labels and predictions.
    * F1 is that of class 1.0 (the minority class in our imbalanced
    * analogs). An empty set scores zero, not NaN.
    */
  def score(label: Array[Double], prediction: Array[Double], metric: String): Double = {
    require(label.length == prediction.length, "Evaluate: labels and predictions differ in length")
    var correct, tp, fp, fn = 0L
    var i = 0
    while (i < label.length) {
      val l = label(i); val p = prediction(i)
      if (p == l) correct += 1
      if (p == 1.0 && l == 1.0) tp += 1
      if (p == 1.0 && l == 0.0) fp += 1
      if (p == 0.0 && l == 1.0) fn += 1
      i += 1
    }
    metric match {
      case "acc" => if (label.isEmpty) 0.0 else correct.toDouble / label.length
      case "f1" =>
        if (tp == 0) 0.0
        else {
          val p = tp.toDouble / (tp + fp)
          val r = tp.toDouble / (tp + fn)
          2 * p * r / (p + r)
        }
      case other => sys.error(s"unknown metric: $other")
    }
  }

  /** `score` over a predictions DataFrame carrying `label` and `prediction`
    * columns, collected to the driver.
    */
  def score(pred: DataFrame, metric: String): Double = {
    val rows = pred.select("label", "prediction").collect()
    score(rows.map(_.getDouble(0)), rows.map(_.getDouble(1)), metric)
  }

  def accuracy(pred: DataFrame): Double = score(pred, "acc")

  def f1(pred: DataFrame): Double = score(pred, "f1")
}
