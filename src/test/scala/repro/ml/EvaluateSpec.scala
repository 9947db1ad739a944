package repro.ml

import repro.SparkSpec

class EvaluateSpec extends SparkSpec {

  private def predDF(pairs: (Double, Double)*) = {
    import spark.implicits._
    pairs.toSeq.toDF("label", "prediction")
  }

  /** `metric` over (label, prediction) pairs, through the array function and
    * through the DataFrame wrapper.
    */
  private def scores(metric: String, pairs: (Double, Double)*): Seq[Double] =
    Seq(Evaluate.score(pairs.map(_._1).toArray, pairs.map(_._2).toArray, metric),
      Evaluate.score(predDF(pairs: _*), metric))

  test("accuracy hand-computed") {
    assert(scores("acc", (1.0, 1.0), (0.0, 0.0), (1.0, 0.0), (0.0, 0.0)) == Seq(0.75, 0.75))
    assert(Evaluate.accuracy(predDF((1.0, 1.0), (0.0, 0.0), (1.0, 0.0), (0.0, 0.0))) == 0.75)
  }

  test("accuracy of perfect and useless predictors") {
    assert(scores("acc", (1.0, 1.0), (0.0, 0.0)) == Seq(1.0, 1.0))
    assert(scores("acc", (1.0, 0.0), (0.0, 1.0)) == Seq(0.0, 0.0))
  }

  test("f1 hand-computed") {
    // tp=2, fp=1, fn=1 -> precision 2/3, recall 2/3, f1 = 2/3.
    val pairs = Seq((1.0, 1.0), (1.0, 1.0), (0.0, 1.0), (1.0, 0.0), (0.0, 0.0))
    scores("f1", pairs: _*).foreach(f => assert(math.abs(f - 2.0 / 3.0) < 1e-12))
    assert(math.abs(Evaluate.f1(predDF(pairs: _*)) - 2.0 / 3.0) < 1e-12)
  }

  test("f1 is zero without true positives") {
    assert(scores("f1", (1.0, 0.0), (0.0, 0.0)) == Seq(0.0, 0.0))
  }

  test("f1 of a perfect predictor is 1") {
    assert(scores("f1", (1.0, 1.0), (0.0, 0.0), (1.0, 1.0)) == Seq(1.0, 1.0))
  }

  test("score dispatches by metric name") {
    val pairs = Seq((1.0, 1.0), (0.0, 1.0))
    assert(scores("acc", pairs: _*) == Seq(0.5, 0.5))
    scores("f1", pairs: _*).foreach(f => assert(math.abs(f - 2.0 / 3.0) < 1e-12))
    intercept[RuntimeException] { Evaluate.score(Array(1.0), Array(1.0), "auc") }
    intercept[RuntimeException] { Evaluate.score(predDF(pairs: _*), "auc") }
  }

  test("empty predictions score zero, not NaN") {
    val df = predDF((1.0, 1.0)).filter("label > 5")
    assert(Evaluate.accuracy(df) == 0.0)
    assert(Evaluate.f1(df) == 0.0)
    assert(scores("acc") == Seq(0.0, 0.0))
    assert(scores("f1") == Seq(0.0, 0.0))
  }
}
