package repro.ml

import repro.SparkSpec
import repro.ml.MLTestData.{accuracy, predictions, trainSet}

class AdaBoostSpec extends SparkSpec {

  test("boosting solves XOR that a single stump cannot") {
    val train = MLTestData.xor(spark, n = 240, seed = 5)
    val test  = MLTestData.xor(spark, n = 120, seed = 6)
    val acc = accuracy(AdaBoost.fit(trainSet(train), rounds = 4, baseDepth = 2, seed = 1), test)
    assert(acc > 0.9, s"acc=$acc")
  }

  test("separable blobs are classified nearly perfectly") {
    val train = MLTestData.blobs(spark, n = 150, seed = 7)
    val test  = MLTestData.blobs(spark, n = 60, seed = 8)
    val acc = accuracy(AdaBoost.fit(trainSet(train), 3, 2, seed = 1), test)
    assert(acc > 0.95, s"acc=$acc")
  }

  test("prediction column is binary") {
    val train = MLTestData.blobs(spark, n = 80, seed = 9)
    val preds = predictions(AdaBoost.fit(trainSet(train), 3, 2, seed = 1), train).toSet
    assert(preds.subsetOf(Set(0.0, 1.0)))
  }

  test("deterministic in the seed") {
    val train = MLTestData.xor(spark, n = 160, seed = 10)
    val test  = MLTestData.xor(spark, n = 60, seed = 11)
    val a1 = accuracy(AdaBoost.fit(trainSet(train), 3, 2, seed = 42), test)
    val a2 = accuracy(AdaBoost.fit(trainSet(train), 3, 2, seed = 42), test)
    assert(a1 == a2)
  }

  test("single-round boosting equals its base tree's behaviour on blobs") {
    val train = MLTestData.blobs(spark, n = 100, seed = 12)
    val acc = accuracy(AdaBoost.fit(trainSet(train), 1, 2, seed = 1), train)
    assert(acc > 0.9, s"acc=$acc")
  }

  test("does not crash on a tiny training set") {
    val train = MLTestData.blobs(spark, n = 10, seed = 13)
    val preds = predictions(AdaBoost.fit(trainSet(train), 3, 2, seed = 1), train)
    assert(preds.length == 10)
  }
}
