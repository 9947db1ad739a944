package repro.ml

import scala.util.Random

import repro.SparkSpec
import repro.core.RunConfig
import repro.ml.MLTestData.{accuracy, predictions, trainSet}

class ModelsSpec extends SparkSpec {

  test("registry has the paper's seven models") {
    assert(Models.all.map(_.name) == RunConfig.AllModels)
    assert(Models.all.size == 7)
  }

  test("byName resolves every model and rejects unknowns") {
    RunConfig.AllModels.foreach(n => assert(Models.byName(n).name == n))
    intercept[RuntimeException] { Models.byName("svm") }
  }

  test("every model reaches >85% accuracy on separable blobs") {
    val train = MLTestData.blobs(spark, n = 200, seed = 30)
    val test  = MLTestData.blobs(spark, n = 80, seed = 31)
    Models.all.foreach { m =>
      val predict = m.fit(trainSet(train), m.defaults, seed = 7)
      val acc = accuracy(predict, test)
      assert(acc > 0.85, s"${m.name}: acc=$acc")
    }
  }

  test("every model emits binary predictions") {
    val train = MLTestData.blobs(spark, n = 100, seed = 32)
    Models.all.foreach { m =>
      val preds = predictions(m.fit(trainSet(train), m.defaults, seed = 7), train).toSet
      assert(preds.subsetOf(Set(0.0, 1.0)), m.name)
    }
  }

  test("sample() draws from the declared grid and keeps defaults for the rest") {
    val rng = new Random(5)
    Models.all.foreach { m =>
      val s = m.sample(rng)
      m.grid.foreach { case (k, vs) => assert(vs.contains(s(k)), s"${m.name}.$k") }
      (m.defaults.keySet -- m.grid.keySet).foreach { k =>
        assert(s(k) == m.defaults(k), s"${m.name}.$k")
      }
    }
  }

  test("sample() is deterministic in the RNG seed") {
    Models.all.foreach { m =>
      assert(m.sample(new Random(9)) == m.sample(new Random(9)), m.name)
    }
  }

  test("tree-family models fit XOR; logistic regression cannot") {
    val train = MLTestData.xor(spark, n = 240, seed = 33)
    val test  = MLTestData.xor(spark, n = 120, seed = 34)
    def acc(name: String): Double = {
      val m = Models.byName(name)
      accuracy(m.fit(trainSet(train), m.defaults, 7), test)
    }
    assert(acc("decision_tree") > 0.9)
    assert(acc("random_forest") > 0.9)
    assert(acc("xgboost") > 0.9)
    assert(acc("logistic_regression") < 0.75) // linear boundary can't do XOR
  }

  test("MLlib models predict on the driver exactly as their own transform does") {
    val sets = Seq(
      "xor"   -> (MLTestData.xor(spark, n = 240, seed = 35), MLTestData.xor(spark, n = 120, seed = 36)),
      "blobs" -> (MLTestData.blobs(spark, n = 200, seed = 37), MLTestData.blobs(spark, n = 80, seed = 38)))
    val names = Seq("logistic_regression", "decision_tree", "random_forest", "xgboost")
    for ((setName, (train, test)) <- sets; name <- names) {
      val m = Models.byName(name).asInstanceOf[MLlibAdapter]
      val local = m.fit(trainSet(train), m.defaults, 7)
      val model = m.fitModel(train, m.defaults, 7)
      Seq(train, test).foreach { rows =>
        val viaTransform = model.transform(rows).select("prediction").collect().map(_.getDouble(0))
        val onDriver = predictions(local, rows)
        assert(onDriver.nonEmpty && onDriver.sameElements(viaTransform), s"$name on $setName")
      }
    }
  }
}
