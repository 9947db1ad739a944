package repro.gridbench

import org.apache.spark.ListenerBusAccess
import org.apache.spark.sql.SparkSession
import org.scalatest.funsuite.AnyFunSuite

class LayersSpec extends AnyFunSuite {

  // Job call sites recorded from traced benchmark runs: the leading lines
  // of each job's final-stage details, down to the first program frames.
  private val recorded: Seq[(String, String, Option[String])] = Seq(
    ("""org.apache.spark.sql.classic.Dataset.count(Dataset.scala:1521)
       |repro.core.Experiment$.$anonfun$runCell$8(Experiment.scala:137)
       |scala.collection.immutable.List.map(List.scala:236)""", "clean", None),
    ("""org.apache.spark.sql.classic.Dataset.count(Dataset.scala:1521)
       |repro.core.Experiment$.$anonfun$runCell$4(Experiment.scala:118)
       |scala.collection.immutable.List.map(List.scala:236)""", "clean", None),
    ("""org.apache.spark.sql.classic.Dataset.count(Dataset.scala:1521)
       |repro.core.Experiment$.runCell(Experiment.scala:101)
       |repro.core.Runner$.$anonfun$measurements$5(Runner.scala:39)""", "core.splits", None),
    ("""org.apache.spark.sql.classic.Dataset.collect(Dataset.scala:1504)
       |repro.core.Experiment$.buildArm(Experiment.scala:42)
       |repro.core.Experiment$.runCell(Experiment.scala:133)""", "ml.features", None),
    ("""org.apache.spark.sql.Dataset.first(Dataset.scala:2691)
       |org.apache.spark.ml.feature.StandardScaler.fit(StandardScaler.scala:114)
       |org.apache.spark.ml.feature.StandardScaler.fit(StandardScaler.scala:85)
       |org.apache.spark.ml.Pipeline.$anonfun$fit$5(Pipeline.scala:152)
       |org.apache.spark.ml.Pipeline.fit(Pipeline.scala:134)
       |repro.ml.Features$.fit(Features.scala:60)
       |repro.core.Experiment$.buildArm(Experiment.scala:35)""", "ml.features", None),
    ("""org.apache.spark.sql.classic.Dataset.collect(Dataset.scala:1504)
       |repro.clean.Outliers$.$anonfun$fitDetector$9(Outliers.scala:47)
       |scala.collection.immutable.List.map(List.scala:236)""", "clean", None),
    ("""org.apache.spark.rdd.RDD.take(RDD.scala:1473)
       |org.apache.spark.ml.tree.impl.DecisionTreeMetadata$.buildMetadata(DecisionTreeMetadata.scala:119)
       |org.apache.spark.ml.tree.impl.GradientBoostedTrees$.boost(GradientBoostedTrees.scala:340)
       |org.apache.spark.ml.classification.GBTClassifier.train(GBTClassifier.scala:58)
       |org.apache.spark.ml.Predictor.fit(Predictor.scala:115)
       |repro.ml.Models$XGBoostAdapter$.fit(Models.scala:100)
       |repro.core.Experiment$.$anonfun$fitModel$6(Experiment.scala:71)""", "ml.models", Some("xgboost")),
    ("""org.apache.spark.rdd.RDD.treeAggregate(RDD.scala:1264)
       |org.apache.spark.ml.stat.Summarizer$.getClassificationSummarizers(Summarizer.scala:238)
       |org.apache.spark.ml.classification.LogisticRegression.train(LogisticRegression.scala:297)
       |org.apache.spark.ml.Predictor.fit(Predictor.scala:115)
       |repro.ml.Models$LogisticRegressionAdapter$.fit(Models.scala:42)
       |repro.core.Experiment$.$anonfun$fitModel$6(Experiment.scala:71)""", "ml.models", Some("logistic_regression")),
    ("""org.apache.spark.rdd.RDD.take(RDD.scala:1473)
       |org.apache.spark.ml.tree.impl.RandomForest$.run(RandomForest.scala:303)
       |org.apache.spark.ml.Predictor.fit(Predictor.scala:115)
       |repro.ml.Models$DecisionTreeAdapter$.fit(Models.scala:63)""", "ml.models", Some("decision_tree")),
    ("""org.apache.spark.rdd.RDD.take(RDD.scala:1473)
       |org.apache.spark.ml.tree.impl.RandomForest$.run(RandomForest.scala:303)
       |org.apache.spark.ml.Predictor.fit(Predictor.scala:115)
       |repro.ml.Models$RandomForestAdapter$.fit(Models.scala:77)""", "ml.models", Some("random_forest")),
    ("""org.apache.spark.sql.classic.Dataset.count(Dataset.scala:1521)
       |repro.ml.AdaBoost$.fit(AdaBoost.scala:25)
       |repro.ml.Models$AdaBoostAdapter$.fit(Models.scala:87)""", "ml.models", Some("adaboost")),
    ("""org.apache.spark.sql.classic.Dataset.collect(Dataset.scala:1504)
       |repro.ml.KNN$.fit(KNN.scala:20)
       |repro.ml.Models$KNNAdapter$.fit(Models.scala:52)""", "ml.models", Some("knn")),
    ("""org.apache.spark.sql.classic.Dataset.collect(Dataset.scala:1504)
       |repro.ml.GaussianNB$.fit(GaussianNB.scala:16)
       |repro.ml.Models$NaiveBayesAdapter$.fit(Models.scala:110)""", "ml.models", Some("naive_bayes")),
    ("""org.apache.spark.sql.classic.Dataset.count(Dataset.scala:1521)
       |repro.core.Runner$.$anonfun$measurements$1(Runner.scala:31)
       |scala.collection.immutable.List.map(List.scala:236)""", "core.runner", None),
    ("""org.apache.spark.sql.classic.Dataset.count(Dataset.scala:1521)
       |repro.core.Runner$.run(Runner.scala:53)
       |repro.gridbench.TopLevel$.runGrid(TopLevel.scala:22)""", "core.runner", None))

  /** An AQE shuffle-stage job: submitted from Spark's own pool thread, so
    * its call site has no program frame at all.
    */
  private val aqePoolJob =
    """org.apache.spark.sql.execution.SQLExecution$.$anonfun$withThreadLocalCaptured$2(SQLExecution.scala:329)
      |java.base/java.util.concurrent.CompletableFuture$AsyncSupply.run(CompletableFuture.java:1768)
      |java.base/java.util.concurrent.ThreadPoolExecutor.runWorker(ThreadPoolExecutor.java:1136)
      |java.base/java.util.concurrent.ThreadPoolExecutor$Worker.run(ThreadPoolExecutor.java:635)
      |java.base/java.lang.Thread.run(Thread.java:840)""".stripMargin

  for ((callSite, layer, model) <- recorded) {
    val site = callSite.stripMargin
    val frame = site.linesIterator.map(Layers.frameOf).find(_.startsWith("repro.")).get
    test(s"$frame -> $layer${model.fold("")(m => s" ($m)")}") {
      val rule = Layers.ofCallSite(site)
      assert(rule.map(_.layer).contains(layer))
      assert(rule.flatMap(_.model) == model)
    }
  }

  test("a job with no program frame matches no rule") {
    assert(Layers.ofCallSite(aqePoolJob).isEmpty)
    assert(Layers.ofCallSite(null).isEmpty)
  }

  test("frameOf drops class-loader and module prefixes") {
    assert(Layers.frameOf("at app//repro.core.Splits$.trainTest(Splits.scala:14)") == "repro.core.Splits$.trainTest")
    assert(Layers.frameOf("java.base/java.lang.Thread.run(Thread.java:840)") == "java.lang.Thread.run")
  }

  test("every rule names a known layer and model") {
    assert(Layers.Table.forall(r => Layers.All.contains(r.layer)))
    assert(Layers.Table.flatMap(_.model).toSet == Layers.Models.toSet)
  }

  test("AQE jobs are attributed through the SQL execution that submitted them") {
    val spark = SparkSession.builder().master("local[2]").appName("LayersSpec")
      .config("spark.ui.enabled", "false").config("spark.sql.adaptive.enabled", "true")
      .config("spark.sql.shuffle.partitions", "2").getOrCreate()
    try {
      val listener = new JobListener
      listener.attribute = true
      spark.sparkContext.addSparkListener(listener)
      import spark.implicits._
      val pred = Seq((1.0, 1.0), (0.0, 1.0), (1.0, 1.0), (0.0, 0.0)).toDF("label", "prediction")
      assert(repro.ml.Evaluate.accuracy(pred.repartition(2)) == 0.75)
      ListenerBusAccess.drain(spark.sparkContext)
      val jobs = listener.take()
      assert(jobs.exists(j => Layers.ofCallSite(j.callSite).isEmpty), "no AQE pool-thread job seen")
      assert(jobs.forall(_.rule.map(_.layer).contains("ml.evaluate")), jobs.map(_.callSite))
    } finally spark.stop()
  }
}
