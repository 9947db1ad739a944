package repro.core

import org.apache.spark.sql.functions._

import repro.SparkSpec
import repro.core.ErrorType._
import repro.data.Datasets
import repro.ml.{Features, Models}

/** End-to-end tests of the per-cell experiment engine with a reduced model
  * set (to keep the unit-test run fast; the full grid runs in bench/).
  */
class ExperimentSpec extends SparkSpec {

  /** Jobs `runCell` issues on the `cell-fit` cell (4 cores). */
  private val MaxCellFitJobs = 78

  private val fastCfg = RunConfig(splits = 1, seeds = 1, searchK = 1,
    models = Seq("decision_tree", "naive_bayes"))

  private def csvLine(m: Measurement): String = m.productIterator.map {
    case d: Double => java.lang.Double.toString(d)
    case x         => x.toString
  }.mkString(",")

  /** Assert `rows` equal the recorded fixture `golden/<name>.csv`, in order
    * and bit-for-bit (doubles are written with `Double.toString`, which
    * round-trips exactly). The fixtures pin the engine's measurements.
    */
  private def assertGolden(name: String, rows: Seq[Measurement]): Unit = {
    val src = scala.io.Source.fromResource(s"golden/$name.csv")
    val expected = try src.getLines().drop(1).toSeq finally src.close()
    assert(rows.map(csvLine) == expected)
  }

  test("mislabel cell: produces BD+CD rows for each model and seed") {
    val ds = Datasets.byName("EEG")
    val full = ds.dirty(spark, Mislabels, "uniform")
    val rows = Experiment.runCell(ds, Mislabels, "uniform", full, split = 0, fastCfg)
    // 1 method × 2 scenarios × 2 models × 1 seed = 4 rows
    assert(rows.size == 4)
    assert(rows.map(_.scenario).toSet == Set("BD", "CD"))
    assert(rows.forall(_.dataset == "EEG_uniform"))
    assert(rows.forall(r => r.detect == "ground_truth" && r.repair == "flip"))
    rows.foreach { r =>
      assert(r.test_b >= 0.0 && r.test_b <= 1.0)
      assert(r.test_d >= 0.0 && r.test_d <= 1.0)
    }
    assertGolden("mislabels_EEG_uniform_s0", rows)
  }

  test("mislabel CD: cleaning test labels lifts the metric (engineered effect)") {
    val ds = Datasets.byName("EEG")
    val full = ds.dirty(spark, Mislabels, "uniform")
    val rows = (0 until 3).flatMap(s =>
      Experiment.runCell(ds, Mislabels, "uniform", full, s, fastCfg))
    val cd = rows.filter(_.scenario == "CD")
    val avgDiff = cd.map(r => r.test_d - r.test_b).sum / cd.size
    // Dirty test labels cap accuracy below the clean test labels by about
    // (2*acc - 1) * 5%.
    assert(avgDiff > 0.01, s"avg CD diff = $avgDiff")
    assertGolden("mislabels_EEG_uniform_s0-2", rows)
  }

  test("missing-values cell: BD-only, one row per imputation method") {
    val ds = Datasets.byName("Titanic")
    val full = ds.dirty(spark, MissingValues)
    val rows = Experiment.runCell(ds, MissingValues, "", full, 0, fastCfg)
    // 6 imputers × 1 scenario × 2 models = 12 rows
    assert(rows.size == 12)
    assert(rows.forall(_.scenario == "BD"))
    assert(rows.map(_.repair).toSet.size == 6)
    assertGolden("missing_values_Titanic_s0", rows)
  }

  test("outlier cell: 12 methods × 2 scenarios per model") {
    val cfg = fastCfg.copy(models = Seq("naive_bayes"))
    val ds = Datasets.byName("Sensor")
    val full = ds.dirty(spark, Outliers)
    val rows = Experiment.runCell(ds, Outliers, "", full, 0, cfg)
    assert(rows.size == 24)
    assert(rows.map(r => (r.detect, r.repair)).toSet.size == 12)
    assertGolden("outliers_Sensor_s0_nb", rows)
  }

  test("CD rows share the clean-trained model: val_b equals val_d") {
    val ds = Datasets.byName("Movie")
    val full = ds.dirty(spark, Duplicates)
    val rows = Experiment.runCell(ds, Duplicates, "", full, 0, fastCfg)
    rows.filter(_.scenario == "CD").foreach(r => assert(r.val_b == r.val_d))
    assertGolden("duplicates_Movie_s0", rows)
  }

  test("runCell is deterministic") {
    val ds = Datasets.byName("University")
    val full = ds.dirty(spark, Inconsistencies)
    val r1 = Experiment.runCell(ds, Inconsistencies, "", full, 0, fastCfg)
    val r2 = Experiment.runCell(ds, Inconsistencies, "", full, 0, fastCfg)
    assert(r1 == r2)
    assertGolden("inconsistencies_University_s0", r1)
  }

  test("imbalanced datasets are scored with F1") {
    val cfg = fastCfg.copy(models = Seq("decision_tree"))
    val ds = Datasets.byName("Credit")
    val full = ds.dirty(spark, Outliers)
    val rows = Experiment.runCell(ds, Outliers, "", full, 0, cfg)
    // F1 can legitimately be 0; just check rows exist and are in range.
    assert(rows.nonEmpty)
    assert(rows.forall(r => r.test_b >= 0.0 && r.test_b <= 1.0))
    assertGolden("outliers_Credit_s0_dt", rows)
  }

  test("fitModel guards degenerate single-class arms with a constant predictor") {
    val ds = Datasets.byName("EEG")
    val full = ds.clean(spark).filter(col("label") === 1.0) // single class
    val (train, _) = Splits.trainTest(full, 0)
    val arm = Experiment.buildArm(ds.spec, train, 0)
    val fitted = Experiment.fitModel(arm, Models.byName("xgboost"), "acc", 0, 0, fastCfg)
    val preds = Features.featurize(arm.pipeline, full.limit(20)).features.map(fitted.predict).distinct
    assert(preds.length == 1 && preds(0) == 1.0)
    arm.train.frame.unpersist()
  }

  test("search with searchK>1 picks the config with the best validation score") {
    val cfg = fastCfg.copy(searchK = 3, models = Seq("decision_tree"))
    val ds = Datasets.byName("EEG")
    val full = ds.dirty(spark, Outliers)
    val rows = Experiment.runCell(ds, Outliers, "", full, 0, cfg)
    assert(rows.nonEmpty) // exercises the multi-config path end-to-end
    assertGolden("outliers_EEG_s0_dt_search3", rows)
  }

  test("mislabel cell, all seven models: rows match the golden fixture") {
    val cfg = fastCfg.copy(models = RunConfig.AllModels)
    val ds = Datasets.byName("EEG")
    val full = ds.dirty(spark, Mislabels, "uniform")
    val rows = Experiment.runCell(ds, Mislabels, "uniform", full, 0, cfg)
    assert(rows.map(_.model).distinct == RunConfig.AllModels)
    assertGolden("mislabels_EEG_uniform_s0_all_models", rows)
  }

  test("outlier cell SD/impute_mean, all seven models: rows match the golden fixture") {
    val cfg = fastCfg.copy(models = RunConfig.AllModels,
      methodFilter = Some(Set(("SD", "impute_mean"))))
    val ds = Datasets.byName("Sensor")
    val full = ds.dirty(spark, Outliers)
    val rows = Experiment.runCell(ds, Outliers, "", full, 0, cfg)
    // 1 method × 2 scenarios × 7 models
    assert(rows.size == 14)
    assertGolden("outliers_Sensor_s0_SD_impute_mean_all_models", rows)
  }

  test("the cell-fit cell issues a bounded number of Spark jobs") {
    // Prediction and scoring run on the driver: a cell's jobs are the
    // cleaning, featurizing and fitting jobs plus one collect per featurized
    // set. Scoring each fit with Spark jobs took this cell to 188 jobs.
    val cfg = fastCfg.copy(models = Seq("adaboost", "knn", "logistic_regression", "naive_bayes"),
      methodFilter = Some(Set(("SD", "impute_mean"))))
    val ds = Datasets.byName("Sensor")
    val full = ds.dirty(spark, Outliers)
    val jobs = jobsOf(Experiment.runCell(ds, Outliers, "", full, 0, cfg))
    assert(jobs <= MaxCellFitJobs, s"runCell issued $jobs jobs")
  }
}
